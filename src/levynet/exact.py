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
factors are a few array expressions in node order with no root and no
secant; the roots are computed only when LstEvaluation.phi_at_kappa is
read.  The factor formula is written once, over classes of nodes
(_class_factors), with one factor per node: a class end holds its
prefactor and every other node its ratio.  The exact transform is one
class; limit.py applies the formula to each rate class.  Where the formula
reads and in which order its factors come out is fixed per network by a
ClassLayout (NetworkSpec.layout), and what it reads of the rates at u by a
ClassRates (NetworkSpec.class_rates keeps the last u's), both built once.
So are the closed form's coefficients (ClassRates.quadratic_terms, kept per
a) and, on first read, ClassRates.sum_matrix: every front sum and every
kappa is linear in omega, so one matrix-vector product with it gives them
all.  A point pays only for omega: that product, after one comparison of
the largest frequency against a bound built with the matrix (_sums); the
closed form, or each other family's Newton roots and its slopes from one
call of its _secant on arguments built >= 0, which skips
laplace_exponent_secant's checks; and the product of the factors.  The
diagnostics are computed only when read.

Both transforms also take a grid of N frequency vectors, one per row, in one
call.  Inside, the grid is held node-major, one column per vector, so every
gather reads x[idx] as for a single vector; the front sums and kappa are
one matrix-vector product per row (one matrix-matrix product would be
quicker but round differently), and the products run left to right, so
each row gets the bits of a call of its own.  Newton, where it is needed,
still solves one root per entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ScalingRangeError, SingularFactorError, StructuralError
from .network import _BIG, ClassRates, NetworkSpec
from .models import LevyModel
from .roots import invert_increasing

_TINY = np.finfo(float).tiny


def as_omega(omega, n: int) -> np.ndarray:
    """Validate a frequency vector: length n, finite, componentwise >= 0.

    A grid of N >= 1 vectors, one per row (shape (N, n)), is checked at once;
    where it fails, each row is checked in turn, so that the first bad row
    raises the error it raises alone.
    """
    return _omega_and_top(omega, n)[0]


def _omega_and_top(omega, n: int) -> tuple[np.ndarray, float]:
    """as_omega's array and its largest entry, from the one max that the check reads."""
    try:
        w = np.asarray(omega, dtype=float)
    except ValueError:  # rows of unequal length: each is checked, so the first bad one raises
        if not isinstance(omega, (list, tuple)):
            raise
        w = np.array([as_omega(row, n) for row in omega])
        return w, np.maximum.reduce(w, axis=None)
    if w.ndim == 2:
        if not (len(w) and w.shape[1] == n and 0.0 <= np.minimum.reduce(w, axis=None)
                and (top := np.maximum.reduce(w, axis=None)) < math.inf):  # nan fails a comparison
            for row in w:
                as_omega(row, n)
            raise ValueError(f"frequency grid needs at least one row, got shape {w.shape}")
        return w, top
    if w.shape != (n,):
        raise ValueError(f"frequency vector must have length {n}, got shape {w.shape}")
    if not 0.0 <= np.minimum.reduce(w) <= (top := np.maximum.reduce(w)) < math.inf:  # nan fails each comparison
        if not np.isfinite(w).all():
            raise ValueError("frequency vector has non-finite entries")
        raise ValueError("frequency vector must be componentwise nonnegative")
    return w, top


def _normal_top(x: np.ndarray) -> float | None:
    """The largest entry of x, a vector or a grid, if every entry is a normal
    float >= tiny and < inf, else None; nan fails."""
    top = np.maximum.reduce(x, axis=None)
    return top if _TINY <= np.minimum.reduce(x, axis=None) and top < math.inf else None


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
    if _normal_top(scaled) is not None:
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
    layout = rates.layout
    r = rates.r[layout.inner]
    x = 2.0 * math.sqrt(a) * (layout.phat[layout.inner] / r)  # quadratic_terms' x, which reads a matrix
    return 2.0 * kap / (r * (1.0 + _quadratic_gap(x, kap)))


def _sums(rates: ClassRates, w: np.ndarray, top: float, max_frequency: float, x: np.ndarray | None = None):
    """y = rates.sum_matrix @ w: every front sum, then every kappa, in node order.

    top is the largest entry of w, and max_frequency a frequency below which
    every entry, and x**2 kappa where x is given, stays far inside the float
    range (ClassRates.max_frequency, or quadratic_terms' for x): then the one
    comparison is all the check.  Else the entries are computed and a
    front sum, kappa or x**2 kappa that leaves the float range raises
    ScalingRangeError naming the node.  A grid w of N rows gives a column
    per row (shape (2n, N)), each from the matrix-vector product of its own
    row, which has the bits of a call of its own (a matrix-matrix product
    would round differently), and the first bad row raises."""
    g = rates.sum_matrix
    if top < max_frequency:
        return g.dot(w) if w.ndim == 1 else (g @ w[..., None])[..., 0].T
    n = g.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        y = g.dot(w) if w.ndim == 1 else (g @ w[..., None])[..., 0]  # a row per vector
        parts = [y[..., :n], y[..., n:]] + ([] if x is None else [y[..., n:] * x * x])
        bad = ~(np.abs(np.stack(parts, axis=-2)) < _BIG)  # nan fails the comparison
    if bad.any():
        *_, part, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise ScalingRangeError(
            f"{('front sum', 'kappa_{}', '4 a phat**2 kappa_{} / r**2')[part].format(j + 2)} of node {j + 1} "
            f"leaves the float range: frequencies up to {top:g}, rates {rates.r.min():g} to {rates.r.max():g}"
        )
    return y if w.ndim == 1 else y.T


# perfbench/tracing.py counts calls to kappa by name
def kappa(spec: NetworkSpec, omega, j: int, u: float) -> float | np.ndarray:
    """Drift-gap aggregate attached to the factor of node j (1 <= j <= n-1).

    The sum over nodes l > j of (r_{l-1}/phat_{l-1} - r_l/phat_l) times the
    front sum of l, as the transform computes it (ClassRates.sum_matrix).
    Under the rate ordering every term is nonnegative, so the result is >=
    0.  A grid of N vectors gives an array of N.
    """
    n = spec.n
    if not 1 <= j <= n - 1:
        raise IndexError(f"kappa index {j} outside 1..{n-1}")
    w, top = _omega_and_top(omega, n)
    rates = spec.class_rates(u)
    k = _sums(rates, w, top, rates.max_frequency)[n + j - 1]
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
        ph, r, sums = self.rates.layout.phat[:-1], self.rates.r[:-1], self.front_sums
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


def _class_factors(model: LevyModel, rates: ClassRates, w: np.ndarray, top: float):
    """The factor formula over the classes of rates.layout.

    rates holds what the formula reads of the rates, w the frequencies, a
    vector or a grid of N rows, and top its largest entry.  Returns the
    factors in node order, a class end's its prefactor, then y, the front
    sums and kappa of _sums, and the roots for the inner nodes; for a grid,
    with a column per vector (node-major).  The roots are None where phi(s) =
    a s**2, which needs none.  With slope(s, y) = r + ph * S(ph * s, ph *
    y) and S the secant of phi, every node's factor is slope(root,
    delta_hat) / slope(root, delta), with root the inverse of psi_j at
    kappa_{j+1} over the class slice.  At a class end kappa, root and
    delta_hat are 0, so the numerator is r (S(0, 0) = phi'(0) = 0) and the
    factor is the prefactor r / slope(0, w).  Where r/phat rises from a
    node to the next in its class (rates.rise) it raises StructuralError;
    elsewhere every kappa term is >= 0.

    For phi(s) = a s**2 (model.quadratic) the root is 2 kappa / (r + D), D =
    sqrt(r**2 + 4 a ph**2 kappa), so r + a ph**2 root = (r + D) / 2, and
    with s the front sums each factor is a ratio of sums of positive terms,
    no root taken: (r + D + 2 a ph s_{j+1}) / (r + D + 2 a ph s_j), with
    s_{j+1} and D - r read as 0 at a class end.  They are computed divided
    through by 2 a ph, as (c + s_{j+1}) / (c + s_j) with c = v (1 + D / r)
    from ClassRates.quadratic_terms; the shared c keeps each within about an
    ulp, and at a class end c = 2 v = r / (a ph).  Every other family takes
    one Newton solve per root and every slope from one secant call, on
    arguments >= 0 by construction, so they go to phi's _secant ordered but
    unchecked.
    """
    layout = rates.layout
    n = layout.phat.size
    if j := rates.rise:
        raise StructuralError(f"r/phat rises from node {j} to node {j + 1}: rate ordering violated within class")
    if (a := model.quadratic) is not None:
        x, v, max_frequency = rates.quadratic_terms(a)
        y = _sums(rates, w, top, max_frequency, x)
        if y.ndim > 1:
            x, v = x[:, None], v[:, None]
        if not layout.inner.size:  # every node ends its class: x = kappa = 0, so c = v + v with no gap
            c = v + v
            return c / (c + y[:n]), y, None
        c = _quadratic_gap(x, y[n:])
        c *= v
        c += v
        terms = y[layout.sum_at]
        terms += c
        return terms[0] / terms[1], y, None

    y = _sums(rates, w, top, rates.max_frequency)
    r, ph = rates.columns if y.ndim > 1 else (rates.r, layout.phat)
    inner = layout.inner
    roots = _psi_inverse(model, r[inner], ph[inner], y[n:][inner])
    hi = np.zeros_like(y[:n])  # ph * root at every node, 0 at a class end
    hi[inner] = roots
    hi *= ph
    # the slopes from each root to delta_hat, then to delta, from one secant call
    lo = y[layout.sum_at]
    slopes = r + ph * model._secant(np.maximum(hi, lo), np.minimum(hi, lo))
    return slopes[0] / slopes[1], y, roots


def _assembled(value: np.float64 | np.ndarray, what: str) -> float | np.ndarray:
    """A product of factors, or for a grid an array of them, clamped to 1.

    A value outside (0, 1] by more than rounding raises SingularFactorError,
    for a grid the first such.
    """
    if value.ndim:
        bad = ~((value > 0.0) & (value <= 1.0 + 1e-9))  # nan fails both
        if bad.any():
            _assembled(value[np.argmax(bad)], what)
        return np.minimum(value, 1.0)
    value = float(value)
    if not math.isfinite(value) or value <= 0.0 or value > 1.0 + 1e-9:
        raise SingularFactorError(f"assembled {what} value {value} outside (0, 1]")
    return min(value, 1.0)


def joint_lst_exact(spec: NetworkSpec, model: LevyModel, omega, u: float) -> LstEvaluation:
    """Exact stationary-workload transform E[exp(-<omega, Q>)] at parameter u.

    Requires omega >= 0 and the rate ordering at u: r/phat must not rise
    from a node to the next, else StructuralError (the u-probe rule of
    validate_assumptions), which keeps every kappa nonnegative.  A front sum
    or kappa that leaves the float range raises ScalingRangeError naming the
    node.  Every factor is a ratio of positive slopes, zero entries of omega
    included; only a product outside (0, 1] raises SingularFactorError.  The
    value is the product of the factors, left to right, the prefactor first.

    omega may be a grid of N vectors, one per row (shape (N, n)): the call
    then evaluates every row with the bits of a call of its own, and every
    field of the result gains a leading axis of N.  A grid raises the error
    its first bad row raises alone, where as_omega, the rate ordering or the
    float range refuses it, in that order of checks; the ordering is a
    property of the network at u.
    """
    w, top = _omega_and_top(omega, spec.n)
    rates = spec.class_rates(u)
    factors, y, roots = _class_factors(model, rates, w, top)
    n = spec.n
    value = _assembled(np.multiply.reduce(factors[rates.layout.order]), "transform")
    if w.ndim > 1:  # node-major inside
        roots = roots if roots is None else roots.T
        return LstEvaluation(value, factors[-1], y[n:-1].T, factors[:-1].T, model, rates, y[:n].T, roots)
    return LstEvaluation(value, float(factors[-1]), y[n:-1], factors[:-1], model, rates, y[:n], roots)
