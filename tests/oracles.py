"""The displayed formulas of the multiscale limit: oracles for joint_lst_limit.

The paper states the class factor of the limit in displayed form,

    F_k = w~_last * frac_last / |A_k| * prod_j |C_j| / |D_j|,

with A_k a class-level aggregate and C_j / D_j differences between the
inverse of Psi_{alpha,c,j}(s) = frac_j s + c phat_j^alpha s^alpha and two
front-weighted frequency sums.  scaling_coefficients and the closed forms for
two-layer trees and tandems evaluate it term by term.  levynet computes the
limit from one factor formula over the rate classes (limit.py), so these stay
independent checks on joint_lst_limit only while they share none of its code:
nothing here comes from levynet.exact or levynet.limit (test_api.py checks
that).  kappa_max_ancestor is the second form of exact.kappa's drift-gap
aggregate, written from the parent map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from levynet import NetworkSpec, RateClassPartition, SingularFactorError, StructuralError, TailPair, starred_sets
from levynet.roots import invert_increasing


def kappa_max_ancestor(spec: NetworkSpec, omega, j: int, u: float) -> float:
    """exact.kappa as the sum over i > j of (ratio_a - ratio_i) * phat_i * w_i,
    with a the later of j and i's parent (1 <= j <= n-1)."""
    n = spec.n
    if not 1 <= j <= n - 1:
        raise IndexError(f"kappa index {j} outside 1..{n-1}")
    w = np.asarray(omega, dtype=float)
    ph = spec.phat
    ratios = spec.rate_vector(u) / ph

    total = 0.0
    for i in range(j + 1, n + 1):
        anc = max(j, spec.parent[i])
        total += (ratios[anc - 1] - ratios[i - 1]) * ph[i - 1] * w[i - 1]
    return total


def psi_limit_inverse(alpha: float, coeff: float, frak_r: float, phat: float, x: float) -> float:
    """Inverse of s -> frak_r * s + coeff * phat**alpha * s**alpha at x >= 0."""
    if frak_r <= 0.0 or coeff <= 0.0 or alpha <= 1.0 or phat <= 0.0:
        raise ValueError("need frak_r > 0, coeff > 0, alpha > 1, phat > 0")
    cp = coeff * phat**alpha
    hi = min(x / frak_r, (x / cp) ** (1.0 / alpha)) if x > 0.0 else 0.0
    return invert_increasing(
        lambda s: frak_r * s + cp * s**alpha,
        x,
        lambda s: frak_r + cp * alpha * s ** (alpha - 1.0),
        hi,
    )


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
    drift_gap[j+1] and the identification with the class constants.  A spec
    that is not the partition's network raises StructuralError.
    """
    partition.require_spec(spec)
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
        kk = partition.class_of[j - 1]
        t_children = 0.0
        t_rates = 0.0
        for l in partition.classes[kk - 1]:
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
        same = partition.class_of[j - 1] == partition.class_of[j]
        t_children, t_rates = class_tail_sum(j + 1, j + 1)
        downstream_gap[j - 1] = (
            t_children
            - t_rates
            - c * ph[j - 1] ** alpha * (weighted(j + 1) / ph[j - 1]) ** alpha
        )
        if same:
            kk = partition.class_of[j - 1]
            last = partition.classes[kk - 1][-1]
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
            "vanishes but others do not; jitter omega"
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
                "vanishes but others do not; jitter omega"
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
