"""Limiting joint workload transform under multiscale traffic scaling.

As the scaling parameter grows, the transform of the rescaled workload
vector factorizes over the rate classes: classes decouple, and class k
contributes a factor built from three families of constants evaluated at the
fraction-scaled frequencies w~ = fractions**beta * omega restricted to the
class.  The per-class factor is

    F_k = w~_last * frac_last / |A_k| * prod_j |C_j| / |D_j|,

with A_k a class-level aggregate, and C_j / D_j differences between the
inverse of psi-like curve Psi_{alpha,c,j}(s) = frac_j s + c phat_j^alpha
s^alpha and two front-weighted frequency sums.  A_k and D_j can vanish at
isolated frequencies; those points have finite limits and are resolved by a
deterministic epsilon-perturbation sequence with an agreement check.

Both regimes share the formula; the regime enters only through the tail pair
(alpha, coeff) of the input process and the direction of the u-sweep.

Cost of one evaluation: O(n^2) array work plus one scalar root solve per
inverse argument.  The front and child structure is built once by
network.build_network (NetworkSpec.front_matrix, child_matrix); per call the
within-class weighted fronts and child sums of all nodes come from one matrix
product each, with the matrix masked to same-class pairs, and every class reads
its constants from those arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularFactorError, SingularityResolutionError, StructuralError
from .exact import _kappas, as_omega
from .models import TailPair
from .network import NetworkSpec
from .partition import RateClassPartition, starred_sets  # starred_sets: scaling_coefficients only
from .roots import invert_increasing

_SINGULAR_RTOL = 1e-9
_EPS_SEQ = (1e-3, 1e-4, 1e-5)
_AGREE_RTOL = 1e-4
_ROOT_TOL = 1e-12


def psi_limit_inverse(alpha: float, coeff: float, frak_r: float, phat: float, x: float) -> float:
    """Inverse of s -> frak_r * s + coeff * phat**alpha * s**alpha at x >= 0."""
    if frak_r <= 0.0 or coeff <= 0.0 or alpha <= 1.0 or phat <= 0.0:
        raise ValueError("need frak_r > 0, coeff > 0, alpha > 1, phat > 0")
    cp = coeff * phat**alpha
    hint = min(x / frak_r, (x / cp) ** (1.0 / alpha)) if x > 0.0 else 0.0
    return invert_increasing(
        lambda s: frak_r * s + cp * s**alpha,
        x,
        deriv=lambda s: frak_r + cp * alpha * s ** (alpha - 1.0) if s > 0.0 else frak_r,
        hi_hint=hint,
        tol=_ROOT_TOL,
    )


@dataclass(frozen=True)
class ClassConstants:
    """Constants of one class factor, evaluated at the supplied frequencies.

    The arrays have one entry per class member but the last, in node order.
    """

    k: int
    members: tuple[int, ...]
    numerator: float
    class_denominator: float
    class_denominator_scale: float
    inverse_arguments: np.ndarray
    inverse_values: np.ndarray
    ratio_numerators: np.ndarray
    ratio_denominators: np.ndarray
    ratio_denominator_scales: np.ndarray

    def is_singular(self) -> bool:
        """True when a denominator vanishes relative to the terms it is made
        of, or the last-node frequency is zero; no absolute scale enters."""
        return bool(
            abs(self.class_denominator) <= _SINGULAR_RTOL * self.class_denominator_scale
            or self.numerator == 0.0
            or np.any(
                np.abs(self.ratio_denominators) <= _SINGULAR_RTOL * self.ratio_denominator_scales
            )
        )

    def assemble(self) -> float:
        ratios = np.abs(self.ratio_numerators) / np.abs(self.ratio_denominators)
        return math.prod([self.numerator / abs(self.class_denominator), *ratios.tolist()])


@dataclass(frozen=True)
class LimitConstants:
    tail: TailPair
    per_class: tuple[ClassConstants, ...]


@dataclass(frozen=True)
class LimitLst:
    """Limit value with one entry per rate class k in entry k-1: the class
    factor, and whether it was resolved through singular_limit."""

    value: float
    factor_values: np.ndarray
    singular: np.ndarray

    @property
    def singular_flags(self) -> tuple[int, ...]:
        return tuple((np.flatnonzero(self.singular) + 1).tolist())


def _within_class_sums(
    spec: NetworkSpec, partition: RateClassPartition, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Entry j-1: the sums of phat_i * w_i over the within-class front of node j
    and over its within-class children, for every node j."""
    cls = np.asarray(partition.class_of)
    same = cls[:, None] == cls[None, :]
    x = spec.phat * w
    return np.where(same, spec.front_matrix, 0.0) @ x, np.where(same, spec.child_matrix, 0.0) @ x


def _class_constants(
    spec: NetworkSpec,
    partition: RateClassPartition,
    tail: TailPair,
    w: np.ndarray,
    sums: tuple[np.ndarray, np.ndarray],
    k: int,
) -> ClassConstants:
    """Constants of class k at w; sums is _within_class_sums(spec, partition, w)."""
    alpha, c = tail.alpha, tail.coeff
    fronts, kids = sums
    members = partition.members(k)
    q, last = members[0], members[-1]
    cut = slice(q - 1, last)  # classes are intervals of the node order
    fr = partition.fractions[cut]
    ph = spec.phat[cut]
    g = fr / ph

    t_children = float(g @ kids[cut])
    t_rates = float(w[cut] @ fr)
    t_tail = c * float(fronts[q - 1]) ** alpha
    a_const = t_children - t_rates - t_tail
    a_scale = max(abs(t_children), abs(t_rates), abs(t_tail), 1e-300)

    # inverse argument of node j: sum over l = j+1..last of (g_{l-1} - g_l) * front_l,
    # a reverse running sum within the class
    args = _kappas(g, fronts[q - 1 : last])
    bad = np.flatnonzero(args < -1e-9 * np.maximum(g[:-1] * float(np.abs(w).sum()), 1e-300))
    if bad.size:
        raise StructuralError(
            f"negative inverse argument {float(args[bad[0]])} at node {q + int(bad[0])}: "
            "rate ordering violated within class"
        )
    args = np.maximum(args, 0.0)
    inv = np.array(
        [
            psi_limit_inverse(alpha, c, fr_j, ph_j, arg)
            for fr_j, ph_j, arg in zip(fr.tolist(), ph.tolist(), args.tolist())
        ]
    )
    front_own = fronts[q - 1 : last - 1] / ph[:-1]
    front_next = fronts[q:last] / ph[:-1]
    den_scales = np.maximum(np.maximum(np.abs(inv), np.abs(front_next)), 1e-300)

    return ClassConstants(
        k=k,
        members=members,
        numerator=float(w[last - 1] * fr[-1]),
        class_denominator=a_const,
        class_denominator_scale=a_scale,
        inverse_arguments=args,
        inverse_values=inv,
        ratio_numerators=inv - front_own,
        ratio_denominators=inv - front_next,
        ratio_denominator_scales=den_scales,
    )


def _scaled_omega(partition: RateClassPartition, tail: TailPair, omega: np.ndarray) -> np.ndarray:
    return partition.fractions**tail.beta * omega


def limit_constants(
    spec: NetworkSpec, partition: RateClassPartition, tail: TailPair, omega
) -> LimitConstants:
    """All per-class constants evaluated at the frequencies as given.

    No fraction rescaling is applied here: callers assembling the limit value
    pass the fraction-scaled frequencies (joint_lst_limit does so itself).
    """
    w = as_omega(omega, spec.n)
    sums = _within_class_sums(spec, partition, w)
    per_class = tuple(
        _class_constants(spec, partition, tail, w, sums, k) for k in range(1, partition.m + 1)
    )
    return LimitConstants(tail, per_class)


def joint_lst_limit(
    spec: NetworkSpec,
    partition: RateClassPartition,
    tail: TailPair,
    omega,
    rng: np.random.Generator | None = None,
) -> LimitLst:
    """Limiting transform of the rescaled workload vector at omega >= 0.

    Classes whose frequencies are all zero contribute factor one.  A class
    whose constants are degenerate at omega (a vanishing class denominator,
    ratio denominator, or last-node frequency) is resolved through
    singular_limit; rng seeds its perturbation direction.
    """
    w = as_omega(omega, spec.n)

    scaled = _scaled_omega(partition, tail, w)
    sums = _within_class_sums(spec, partition, scaled)
    factors = np.ones(partition.m)
    singular = np.zeros(partition.m, dtype=bool)
    for k in range(1, partition.m + 1):
        members = partition.members(k)
        if all(scaled[i - 1] == 0.0 for i in members):
            continue
        constants = _class_constants(spec, partition, tail, scaled, sums, k)
        singular[k - 1] = constants.is_singular()
        if singular[k - 1]:
            factors[k - 1] = singular_limit(spec, partition, tail, w, k, rng=rng)
        else:
            factors[k - 1] = constants.assemble()

    value = math.prod(factors.tolist())
    if not np.isfinite(value) or value <= 0.0 or value > 1.0 + 1e-9:
        raise SingularFactorError(f"assembled limit value {value} outside (0, 1]")
    return LimitLst(min(value, 1.0), factors, singular)


def singular_limit(
    spec: NetworkSpec,
    partition: RateClassPartition,
    tail: TailPair,
    omega,
    k: int,
    rng: np.random.Generator | None = None,
) -> float:
    """Class-k factor at a degenerate frequency point, by perturbation.

    Evaluates the factor along scaled-omega + eps * e for eps in (1e-3, 1e-4,
    1e-5) with a random direction e > 0, extrapolates consecutive pairs to
    eps = 0, and requires the two extrapolated values to agree within 1e-4
    relative; the last extrapolation is returned.  Nearby-zero denominators
    have finite positive ratio limits, so this terminates away from
    pathological inputs; disagreement raises SingularityResolutionError.
    """
    w = np.asarray(omega, dtype=float)
    scaled = _scaled_omega(partition, tail, w)
    members = partition.members(k)
    if rng is None:
        rng = np.random.default_rng(0)
    direction = rng.uniform(0.5, 1.5, size=len(members))

    values = []
    for eps in _EPS_SEQ:
        pert = scaled.copy()
        for idx, i in enumerate(members):
            pert[i - 1] += eps * direction[idx]
        constants = _class_constants(
            spec, partition, tail, pert, _within_class_sums(spec, partition, pert), k
        )
        if constants.is_singular():
            raise SingularityResolutionError(
                f"class {k}: perturbed point at eps={eps} is still degenerate"
            )
        values.append(constants.assemble())

    extrapolated = []
    for (e1, v1), (e2, v2) in zip(
        zip(_EPS_SEQ, values), zip(_EPS_SEQ[1:], values[1:])
    ):
        extrapolated.append((v2 * e1 - v1 * e2) / (e1 - e2))
    gap = abs(extrapolated[0] - extrapolated[1])
    if gap > _AGREE_RTOL * max(abs(extrapolated[-1]), 1e-300):
        raise SingularityResolutionError(
            f"class {k}: perturbation values did not stabilize "
            f"(extrapolations {extrapolated[0]:.6e} vs {extrapolated[1]:.6e})"
        )
    return extrapolated[-1]


@dataclass(frozen=True)
class ScalingCoefficients:
    """Leading coefficients of the exact-transform pieces under rate scaling.

    Entry j-1 of each array corresponds to node j.  drift_gap covers the gap
    kappa_{j+1} - psi_j(delta_j) and is also defined at j = n by the same
    expression; downstream_gap covers kappa_{j+1} - psi_j(delta_hat_j) and
    telescopes onto drift_gap shifted by one node.  kappa_lead and root_lead
    are the leading coefficients of kappa_{j+1} and of Phi_j(kappa_{j+1});
    num_lead and den_lead those of Phi_j(kappa) - delta_j resp. - delta_hat_j.
    """

    drift_gap: np.ndarray
    downstream_gap: np.ndarray
    kappa_lead: np.ndarray
    root_lead: np.ndarray
    num_lead: np.ndarray
    den_lead: np.ndarray


def scaling_coefficients(
    spec: NetworkSpec, partition: RateClassPartition, tail: TailPair, omega
) -> ScalingCoefficients:
    """Evaluate the displayed leading-coefficient expressions at omega >= 0.

    These quantities drive the limit factorization; exposing them directly
    lets tests assert the telescoping identity downstream_gap[j] ==
    drift_gap[j+1] and the identification with the class constants.
    """
    n = spec.n
    w = np.asarray(omega, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"frequency vector must have length {n}")
    alpha, c = tail.alpha, tail.coeff
    beta = tail.beta
    fr = partition.fractions
    ph = spec.phat
    scaled = fr**beta * w

    def weighted(j: int) -> float:
        star, _ = starred_sets(spec, partition, j)
        return sum(ph[i - 1] * scaled[i - 1] for i in star)

    def class_tail_sum(j: int, start: int) -> tuple[float, float]:
        """(children term, rate term) summed over l >= start within class(j)."""
        kk = partition.class_index(j)
        t_children = 0.0
        t_rates = 0.0
        for l in partition.members(kk):
            if l < start:
                continue
            _, dstar = starred_sets(spec, partition, l)
            t_children += fr[l - 1] / ph[l - 1] * sum(ph[m - 1] * scaled[m - 1] for m in dstar)
            t_rates += w[l - 1] * fr[l - 1] ** (alpha * beta)
        return t_children, t_rates

    drift_gap = np.empty(n)
    for j in range(1, n + 1):
        t_children, t_rates = class_tail_sum(j, j)
        drift_gap[j - 1] = t_children - t_rates - c * weighted(j) ** alpha

    downstream_gap = np.empty(n - 1)
    kappa_lead = np.empty(n - 1)
    root_lead = np.empty(n - 1)
    num_lead = np.empty(n - 1)
    den_lead = np.empty(n - 1)
    for j in range(1, n):
        same = partition.class_index(j) == partition.class_index(j + 1)
        t_children, t_rates = class_tail_sum(j + 1, j + 1)
        downstream_gap[j - 1] = (
            t_children
            - t_rates
            - c * ph[j - 1] ** alpha * (weighted(j + 1) / ph[j - 1]) ** alpha
        )
        if same:
            kk = partition.class_index(j)
            last = partition.members(kk)[-1]
            f_j = sum(
                (fr[l - 2] / ph[l - 2] - fr[l - 1] / ph[l - 1]) * weighted(l)
                for l in range(j + 1, last + 1)
            )
            g_j = psi_limit_inverse(alpha, c, fr[j - 1], ph[j - 1], max(f_j, 0.0))
            den_lead[j - 1] = g_j - weighted(j + 1) / ph[j - 1]
            num_lead[j - 1] = g_j - weighted(j) / ph[j - 1]
        else:
            f_j = fr[j - 1] / ph[j - 1] * weighted(j + 1)
            g_j = f_j / fr[j - 1]
            den_lead[j - 1] = drift_gap[j] / fr[j - 1]
            num_lead[j - 1] = -weighted(j) / ph[j - 1]
        kappa_lead[j - 1] = f_j
        root_lead[j - 1] = g_j

    return ScalingCoefficients(
        drift_gap, downstream_gap, kappa_lead, root_lead, num_lead, den_lead
    )


@dataclass(frozen=True)
class TwoLayerParams:
    """Root plus n-1 leaves: routing fractions out of the root and leaf rate
    fractions relative to the first leaf's rate (node 2)."""

    branch_fractions: tuple[float, ...]
    rate_fractions: tuple[float, ...]
    alpha: float
    coeff: float

    def __post_init__(self):
        if len(self.branch_fractions) != len(self.rate_fractions):
            raise ValueError("one rate fraction per branch required")
        if not self.branch_fractions:
            raise ValueError("a two-layer network needs at least one leaf")
        if sum(self.branch_fractions) > 1.0 + 1e-12:
            raise StructuralError("root routing fractions must sum to at most 1")
        if any(p <= 0.0 for p in self.branch_fractions):
            raise ValueError("branch fractions must be positive")
        if any(r <= 0.0 for r in self.rate_fractions):
            raise ValueError("rate fractions must be positive")

    @property
    def n(self) -> int:
        return 1 + len(self.branch_fractions)


def closed_form_two_layer(params: TwoLayerParams, omega) -> float:
    """Direct evaluation of the displayed two-layer limit formula.

    Serves as an independent oracle for joint_lst_limit on the two-layer
    shape; the root factor is Mittag-Leffler, the leaf factor couples the
    leaves through the root's splitting.
    """
    n = params.n
    w = np.asarray(omega, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"frequency vector must have length {n}")
    alpha, c = params.alpha, params.coeff
    beta = 1.0 / (alpha - 1.0)

    f1 = 1.0 / (1.0 + c * w[0] ** (alpha - 1.0)) if w[0] > 0.0 else 1.0

    p = np.concatenate([[np.nan], np.asarray(params.branch_fractions)])  # p[l-1] for l >= 2
    fr = np.concatenate([[np.nan], np.asarray(params.rate_fractions)])
    scaled = np.empty(n)  # fraction-scaled leaf frequencies, slot l-1 for l >= 2
    scaled[0] = np.nan
    for l in range(2, n + 1):
        scaled[l - 1] = fr[l - 1] ** beta * w[l - 1]

    if all(scaled[l - 1] == 0.0 for l in range(2, n + 1)):
        return f1
    if scaled[n - 1] == 0.0:
        raise SingularFactorError(
            "two-layer closed form is degenerate when the last leaf frequency "
            "vanishes but others do not; jitter omega",
            factor_index=2,
        )

    den = sum(scaled[l - 1] * fr[l - 1] for l in range(2, n + 1)) + c * (
        sum(p[l - 1] * scaled[l - 1] for l in range(2, n + 1))
    ) ** alpha
    f2 = scaled[n - 1] * fr[n - 1] / den
    for j in range(2, n):
        arg = sum(
            (fr[j - 1] / p[j - 1] - fr[l - 1] / p[l - 1]) * p[l - 1] * scaled[l - 1]
            for l in range(j + 1, n + 1)
        )
        inv = psi_limit_inverse(alpha, c, fr[j - 1], p[j - 1], max(arg, 0.0))
        num = inv - sum(p[l - 1] * scaled[l - 1] for l in range(j, n + 1)) / p[j - 1]
        dnm = inv - sum(p[l - 1] * scaled[l - 1] for l in range(j + 1, n + 1)) / p[j - 1]
        f2 *= abs(num) / abs(dnm)
    return f1 * f2


@dataclass(frozen=True)
class TandemParams:
    """Chain of n nodes; anchors mark the first node of each rate class and
    rate fractions are relative to the anchor of the own class (so each
    anchor's fraction is 1 and fractions decrease strictly within a class)."""

    anchors: tuple[int, ...]
    rate_fractions: tuple[float, ...]
    alpha: float
    coeff: float

    def __post_init__(self):
        n = len(self.rate_fractions)
        if not self.anchors or self.anchors[0] != 1:
            raise ValueError("anchors must start at node 1")
        if any(a >= b for a, b in zip(self.anchors, self.anchors[1:])) or self.anchors[-1] > n:
            raise ValueError("anchors must increase and stay within 1..n")
        if any(r <= 0.0 for r in self.rate_fractions):
            raise ValueError("rate fractions must be positive")

    @property
    def n(self) -> int:
        return len(self.rate_fractions)


def closed_form_tandem(params: TandemParams, omega) -> float:
    """Direct evaluation of the displayed tandem limit formula.

    Independent oracle for joint_lst_limit on chains; with singleton classes
    it collapses to the product of Mittag-Leffler transforms.
    """
    n = params.n
    w = np.asarray(omega, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"frequency vector must have length {n}")
    alpha, c = params.alpha, params.coeff
    beta = 1.0 / (alpha - 1.0)
    fr = np.asarray(params.rate_fractions)
    bounds = list(params.anchors) + [n + 1]

    value = 1.0
    for k in range(len(params.anchors)):
        q, nxt = bounds[k], bounds[k + 1]
        last = nxt - 1
        if all(w[l - 1] == 0.0 for l in range(q, last + 1)):
            continue
        if w[last - 1] == 0.0:
            raise SingularFactorError(
                "tandem closed form is degenerate when a class's last frequency "
                "vanishes but others do not; jitter omega",
                factor_index=k + 1,
            )
        den = (
            sum(
                (fr[l - 2] - fr[l - 1]) * w[l - 1] * fr[l - 1] ** beta
                for l in range(q + 1, last + 1)
            )
            - w[q - 1]
            - c * w[q - 1] ** alpha
        )
        fk = w[last - 1] * fr[last - 1] ** (alpha * beta) / den
        for j in range(q, last):
            arg = sum(
                (fr[l - 2] - fr[l - 1]) * w[l - 1] * fr[l - 1] ** beta
                for l in range(j + 1, last + 1)
            )
            inv = psi_limit_inverse(alpha, c, fr[j - 1], 1.0, max(arg, 0.0))
            fk *= (inv - w[j - 1] * fr[j - 1] ** beta) / (inv - w[j] * fr[j] ** beta)
        value *= abs(fk)
    return value
