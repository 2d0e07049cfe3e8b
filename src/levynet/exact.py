"""Exact joint transform of the stationary workload at fixed service rates.

The value at frequencies omega >= 0 is a prefactor r_n * w_n / psi_n(w_n)
times, for every node j < n, a ratio of two expressions of the shape

    (Phi_j(x) - y) / (x - psi_j(y)),

with x the drift-gap aggregate kappa_{j+1} and y one of two front-weighted
frequency sums.  Each is the inverse slope of psi_j between Phi_j(x) and y,
1 / (r_j + phat_j * S(phat_j * Phi_j(x), phat_j * y)) with S the secant of phi
(LevyModel.laplace_exponent_secant): positive, free of cancellation, and
phi' at the removable point Phi_j(x) = y.  So every factor is a ratio of two
positive slopes, and zero frequencies need no special case.

Cost of one evaluation: O(n^2) array work, plus n - 1 scalar Newton solves
and one secant call unless phi(s) = a s**2 (LevyModel.quadratic: Brownian
input and every alpha = 2 limit).  There the single-queue algebra gives
every factor in closed form, a ratio of sums of positive terms, so the
factors are a few array expressions with no root and no secant; the roots
are computed only when LstEvaluation.phi_at_kappa is read.  The factor
formula is written once, over classes of nodes (_class_factors), with one
factor per node: a class end holds its prefactor and every other node its
ratio.  The exact transform is one class; limit.py applies the formula to
each rate class.  Where the formula reads and in which order its factors
come out is fixed per network by a ClassLayout (NetworkSpec.layout), and
what it reads of the rates at u by a ClassRates (NetworkSpec.class_rates
keeps the last u's), both built once, and so are the closed form's
coefficients (ClassRates.quadratic_terms, kept per a), so a point pays only
for omega: all front sums, one product with NetworkSpec.front_matrix; every
kappa, one reverse cumulative sum; every other family's slopes, one call of
its _secant on arguments built >= 0, which skips laplace_exponent_secant's
checks.  The diagnostics are computed only when read.

Both transforms also take a grid of N frequency vectors, one per row, in one
call.  Inside, the grid is held node-major, one column per vector, so every
gather reads x[idx] as for a single vector; the front sums are one
matrix-vector product per row and the products run left to right, so each
row gets the bits of a call of its own.  Newton, where it is needed, still
solves one root per entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ScalingRangeError, SingularFactorError, StructuralError
from .network import ClassRates, NetworkSpec
from .models import LevyModel
from .roots import invert_increasing

_EMPTY = np.empty(0)
_ZERO = np.zeros(1)
_TINY = np.finfo(float).tiny


def as_omega(omega, n: int) -> np.ndarray:
    """Validate a frequency vector: length n, finite, componentwise >= 0.

    A grid of N >= 1 vectors, one per row (shape (N, n)), is checked at once;
    where it fails, each row is checked in turn, so that the first bad row
    raises the error it raises alone.
    """
    try:
        w = np.asarray(omega, dtype=float)
    except ValueError:  # rows of unequal length: each is checked, so the first bad one raises
        if not isinstance(omega, (list, tuple)):
            raise
        return np.array([as_omega(row, n) for row in omega])
    if w.ndim == 2:
        if not (len(w) and w.shape[1] == n and 0.0 <= np.minimum.reduce(w, axis=None)
                and np.maximum.reduce(w, axis=None) < math.inf):  # nan fails a comparison
            for row in w:
                as_omega(row, n)
            raise ValueError(f"frequency grid needs at least one row, got shape {w.shape}")
        return w
    if w.shape != (n,):
        raise ValueError(f"frequency vector must have length {n}, got shape {w.shape}")
    if not 0.0 <= np.minimum.reduce(w) <= np.maximum.reduce(w) < math.inf:  # nan fails each comparison
        if not np.isfinite(w).all():
            raise ValueError("frequency vector has non-finite entries")
        raise ValueError("frequency vector must be componentwise nonnegative")
    return w


def _all_normal(x: np.ndarray) -> bool:
    """Every entry, of a vector or a grid, is a normal float >= tiny and < inf; nan fails."""
    return _TINY <= np.minimum.reduce(x, axis=None) and np.maximum.reduce(x, axis=None) < math.inf


@np.errstate(over="ignore", invalid="ignore")
def _scaled_frequency(w: np.ndarray, base: np.ndarray, beta: float, where: str, name: str) -> np.ndarray:
    """w * base**beta for w >= 0, 0 where w is: the frequencies at which both
    transforms are scaled.  A nonzero entry that overflows, or underflows
    below the normal float range (to 0 or to a subnormal, which keeps few
    digits), raises ScalingRangeError naming the node, where it is scaled
    ("at u = 10", "in the limit") and the base (name, with {} for the node).
    For a grid w of shape (N, n) it names the first such entry in row
    order.  The check reads a min and a max unless an entry is 0 or out of
    range."""
    factor = base**beta
    scaled = w * factor
    if _all_normal(scaled):
        return scaled
    nonzero = w != 0.0
    scaled[~nonzero] = 0.0  # 0 * inf is nan
    if (lost := nonzero & ((scaled < _TINY) | (scaled == math.inf))).any():
        at = np.unravel_index(np.argmax(lost), lost.shape)
        j = int(at[-1])
        raise ScalingRangeError(
            f"scaled frequency of node {j + 1} "
            f"{'overflows' if np.isinf(scaled[at]) else f'underflows to {scaled[at]:g}'} {where}: "
            f"omega_{j + 1} = {w[at]:g}, {name.format(j + 1)}**beta = {factor[j]:g}"
        )
    return scaled


def _psi_inverse(model: LevyModel, r: np.ndarray, ph: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Inverse at x of s -> r * s + phi(ph * s), elementwise over the arrays,
    by Newton from x / r, where psi >= x: one solve per entry of x.  x >= 0,
    of shape (m,) or (m, N), with r and ph broadcasting against it.
    """
    if x.ndim > 1:  # a grid: each node's rates along its row
        r, ph = np.broadcast_to(r, x.shape).ravel(), np.broadcast_to(ph, x.shape).ravel()
    return np.array(
        [
            invert_increasing(
                lambda s: rj * s + float(model.laplace_exponent(pj * s)),
                xj,
                lambda s: rj + pj * float(model.laplace_exponent_deriv(pj * s)),
                xj / rj,
            )
            for rj, pj, xj in zip(r.tolist(), ph.tolist(), x.ravel().tolist())
        ]
    ).reshape(x.shape)


def _quadratic_gap(x: np.ndarray, kap: np.ndarray) -> np.ndarray:
    """D / r = sqrt(1 + 4 a phat**2 kappa / r**2) for phi(s) = a s**2, with D =
    sqrt(r**2 + 4 a phat**2 kappa), from x = 2 sqrt(a) phat / r
    (ClassRates.quadratic_terms) as sqrt(1 + (x kappa) x): no rate is squared."""
    t = x * kap
    t *= x
    t += 1.0
    return np.sqrt(t, out=t)


def _quadratic_root(rates: ClassRates, a: float, kap: np.ndarray) -> np.ndarray:
    """The root Phi = 2 kappa / (r + D) of r s + a phat**2 s**2 = kappa at the
    inner nodes, a sum of positive terms; kap of shape (m,), or (N, m) for a grid."""
    r = rates.r_at[: rates.layout.inner.size]
    return 2.0 * kap / (r * (1.0 + _quadratic_gap(rates.quadratic_terms(a)[0], kap)))


def _front_sums(front: np.ndarray, phat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Entry j-1: the sum of phat_l * w_l over l in the front of node j (row j-1 of front), for every j.

    A grid w of shape (N, n) gives a row of sums per vector, each from the
    matrix-vector product of its own row: a matrix-matrix product would
    round differently."""
    x = phat * w
    return front @ x if x.ndim == 1 else (front @ x[..., None])[..., 0]


# perfbench/tracing.py counts calls to kappa by name
def kappa(spec: NetworkSpec, omega, j: int, u: float) -> float | np.ndarray:
    """Drift-gap aggregate attached to the factor of node j (1 <= j <= n-1).

    The sum over nodes l > j of (r_{l-1}/phat_{l-1} - r_l/phat_l) times the
    front sum of l, as the transform computes it (ClassRates.kappas).  Under
    the rate ordering every term is nonnegative, so the result is >= 0.  A
    grid of N vectors gives an array of N.
    """
    n = spec.n
    if not 1 <= j <= n - 1:
        raise IndexError(f"kappa index {j} outside 1..{n-1}")
    w = as_omega(omega, n)
    k = spec.class_rates(u).kappas(_front_sums(spec.front_matrix, spec.phat, w).T)[j - 1]
    return k if k.ndim else float(k)


@dataclass(frozen=True)
class LstEvaluation:
    """Value and per-factor constituents of one exact-transform evaluation.

    Entry j-1 of every array belongs to the factor of node j < n: kappa_{j+1},
    delta_j, delta_hat_j, the root Phi_j(kappa_{j+1}), psi_j at delta_j and
    at delta_hat_j, and the factor value.  The deltas, psi and the residual
    come on first read from model, rates (ClassRates) and front_sums, and so
    do the roots where the evaluation took none (_roots is None).  The
    evaluation of a grid of N vectors gives every field and diagnostic a
    leading axis of N: value, prefactor and max_root_residual are arrays of
    N, the others have a row per vector.
    """

    value: float | np.ndarray
    prefactor: float | np.ndarray
    kappa: np.ndarray
    factor_values: np.ndarray
    model: LevyModel = field(repr=False)
    rates: ClassRates = field(repr=False)
    front_sums: np.ndarray = field(repr=False)
    _roots: np.ndarray | None = field(repr=False)

    @cached_property
    def phi_at_kappa(self) -> np.ndarray:
        """Newton's roots, kept from the evaluation, or where phi(s) = a s**2 the closed form on first read."""
        if self._roots is not None:
            return self._roots
        return _quadratic_root(self.rates, self.model.quadratic, self.kappa)

    @cached_property
    def _psi_points(self) -> list[np.ndarray]:
        """The roots, delta and delta_hat, then psi at each, from one exponent call."""
        ph, sums = self.rates.layout.phat[:-1], self.front_sums
        r = self.rates.r_at[: len(ph)]
        s = np.stack((self.phi_at_kappa, sums[..., :-1] / ph, sums[..., 1:] / ph))
        return [*s, *(r * s + self.model.laplace_exponent(ph * s))]

    @cached_property
    def max_root_residual(self) -> float | np.ndarray:
        residual = np.abs(self._psi_points[3] - self.kappa).max(axis=-1, initial=0.0)
        return residual if residual.ndim else float(residual)

    delta = property(lambda self: self._psi_points[1])
    delta_hat = property(lambda self: self._psi_points[2])
    psi_delta = property(lambda self: self._psi_points[4])
    psi_delta_hat = property(lambda self: self._psi_points[5])


def _class_factors(model: LevyModel, rates: ClassRates, w, sums):
    """The factor formula over the classes of rates.layout.

    rates holds what the formula reads of the rates, and w and sums each
    node's frequency and its front sum within its class, or for a grid of N
    vectors a column of them per vector (shape (n, N)).  Returns the factors
    in the layout's order (the inner nodes, then the class ends), then kappa
    and the roots for the inner nodes, for a grid with a column per vector;
    the roots are None where phi(s) = a s**2, which needs none.  With
    slope(s, y) = r + ph * S(ph * s, ph * y) and S the secant of phi, a
    class end's factor is its prefactor r / slope(w, 0) and every inner
    node's is slope(root, delta_hat) / slope(root, delta), with root the
    inverse of psi_j at kappa_{j+1} over the class slice.  Where r/phat
    rises from a node to the next in its class (rates.rise) it raises
    StructuralError; elsewhere every kappa term is >= 0.

    For phi(s) = a s**2 (model.quadratic) the root is 2 kappa / (r + D), D =
    sqrt(r**2 + 4 a ph**2 kappa), so r + a ph**2 root = (r + D) / 2, and
    with s the front sums each factor is a ratio of sums of positive terms,
    no root taken: (r + D + 2 a ph s_{j+1}) / (r + D + 2 a ph s_j) at an
    inner node, and r / (r + a ph s_j) at a class end.  They are computed
    divided through by 2 a ph and by a ph, as (u + s_{j+1}) / (u + s_j) with
    u = v (1 + D / r) and e / (e + s_j), from ClassRates.quadratic_terms;
    the shared u and e keep each within about an ulp.  Every other family
    takes one Newton solve per root and every slope from one secant call,
    on arguments >= 0 by construction, so they go to phi's _secant ordered
    but unchecked.
    """
    layout = rates.layout
    m = layout.inner.size
    empty = w[:0] if w.ndim > 1 else _EMPTY  # no kappa or root
    if j := rates.rise:
        raise StructuralError(f"r/phat rises from node {j} to node {j + 1}: rate ordering violated within class")
    if (a := model.quadratic) is not None:
        x, v, e, at = rates.quadratic_terms(a)
        if w.ndim > 1:
            x, v, e = x[:, None], v[:, None], e[:, None]
        if not m:  # all classes singletons: every factor is a prefactor, and each front sum is a class end's
            return e / (e + sums), empty, None
        kap = rates.kappas(sums)
        u = _quadratic_gap(x, kap)
        u *= v
        u += v
        terms = sums[at]
        terms[:, :m] += u
        terms[0, m:] = e  # a class end's numerator is e + 0
        terms[1, m:] += e
        return terms[0] / terms[1], kap, None

    if w.ndim > 1:  # a grid: the per-node constants as columns, and r_at at every entry for the numerators
        r, ph, r_at, ph_at = rates.columns
        r_at, zero = r_at.repeat(w.shape[1], 1), np.zeros((1, w.shape[1]))
    else:
        r, ph, r_at, ph_at, zero = rates.r, layout.phat, rates.r_at, layout.phat_at, _ZERO
    if not m:  # all classes singletons: every factor is a prefactor, and there is no kappa or root
        return r / (r + ph * model._secant(ph * w, 0.0)), empty, empty
    kap = rates.kappas(sums)
    roots = _psi_inverse(model, r_at[:m], ph_at[:m], kap)

    # the slopes from each root to delta_hat and to delta, and from w to 0 at
    # the class ends, from one secant call
    hi = ph_at * np.concatenate((roots, roots, w[layout.ends]))
    lo = np.concatenate((sums, zero))[layout.sum_at]
    slopes = r_at + ph_at * model._secant(np.maximum(hi, lo), np.minimum(hi, lo))
    return np.concatenate((slopes[:m], r_at[2 * m :])) / slopes[m:], kap, roots


def _assembled(value: float | np.ndarray, what: str) -> float | np.ndarray:
    """A product of factors, or for a grid an array of them, clamped to 1.

    A value outside (0, 1] by more than rounding raises SingularFactorError,
    for a grid the first such.
    """
    if isinstance(value, np.ndarray):
        bad = ~((value > 0.0) & (value <= 1.0 + 1e-9))  # nan fails both
        if bad.any():
            _assembled(float(value[np.argmax(bad)]), what)
        return np.minimum(value, 1.0)
    if not math.isfinite(value) or value <= 0.0 or value > 1.0 + 1e-9:
        raise SingularFactorError(f"assembled {what} value {value} outside (0, 1]")
    return min(value, 1.0)


def joint_lst_exact(spec: NetworkSpec, model: LevyModel, omega, u: float) -> LstEvaluation:
    """Exact stationary-workload transform E[exp(-<omega, Q>)] at parameter u.

    Requires omega >= 0 and the rate ordering at u: r/phat must not rise
    from a node to the next, else StructuralError (the u-probe rule of
    validate_assumptions), which keeps every kappa nonnegative.  Every
    factor is a ratio of positive slopes, zero entries of omega included;
    only a product outside (0, 1] raises SingularFactorError.  The value is
    the product of the factors, left to right, the prefactor first.

    omega may be a grid of N vectors, one per row (shape (N, n)): the call
    then evaluates every row with the bits of a call of its own, and every
    field of the result gains a leading axis of N.  A grid raises the error
    its first bad row raises alone, where as_omega or the rate ordering
    refuses it; the ordering is a property of the network at u.
    """
    w = as_omega(omega, spec.n)
    rates = spec.class_rates(u)
    if w.ndim > 1:  # a grid, node-major inside
        sums = _front_sums(spec.front_matrix, spec.phat, w)
        factors, kap, roots = _class_factors(model, rates, w.T, sums.T)
        value = _assembled(np.multiply.reduce(factors[rates.layout.order]), "transform")
        roots = roots if roots is None else roots.T
        return LstEvaluation(value, factors[-1], kap.T, factors[:-1].T, model, rates, sums, roots)
    sums = spec.front_matrix @ (spec.phat * w)
    factors, kap, roots = _class_factors(model, rates, w, sums)
    prefactor, values = float(factors[-1]), factors[:-1]
    value = _assembled(math.prod([prefactor, *values.tolist()]), "transform")
    return LstEvaluation(value, prefactor, kap, values, model, rates, sums, roots)
