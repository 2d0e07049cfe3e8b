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
unless phi(s) = a s**2 (LevyModel.quadratic: Brownian input and every
alpha = 2 limit), where the roots are one closed-form array expression.  The
factor formula is written once, over classes of nodes (_class_factors), with
one factor per node: a class end holds its prefactor and every other node
its ratio.  The exact transform is one class; limit.py applies the formula
to each rate class.  Where the formula reads and in which order its factors
come out is fixed per network by a ClassLayout (NetworkSpec.layout), and
what it reads of the rates at u by a ClassRates (NetworkSpec.class_rates
keeps the last u's), both built once, so a point pays only for omega: all
front sums, one product with NetworkSpec.front_matrix; every kappa, one
reverse cumulative sum; every slope, one call of the family's _secant on
arguments built >= 0, which skips laplace_exponent_secant's checks.  The
diagnostics are computed only when read.
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
    """Validate a frequency vector: length n, finite, componentwise >= 0."""
    w = np.asarray(omega, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"frequency vector must have length {n}, got shape {w.shape}")
    if not 0.0 <= np.minimum.reduce(w) <= np.maximum.reduce(w) < math.inf:  # nan fails each comparison
        if not np.isfinite(w).all():
            raise ValueError("frequency vector has non-finite entries")
        raise ValueError("frequency vector must be componentwise nonnegative")
    return w


def _all_normal(x: np.ndarray) -> bool:
    """Every entry is a normal float >= tiny and < inf; nan fails."""
    return _TINY <= np.minimum.reduce(x) and np.maximum.reduce(x) < math.inf


@np.errstate(over="ignore", invalid="ignore")
def _scaled_frequency(w: np.ndarray, base: np.ndarray, beta: float, where: str, name: str) -> np.ndarray:
    """w * base**beta for w >= 0, 0 where w is: the frequencies at which both
    transforms are scaled.  A nonzero entry that overflows, or underflows
    below the normal float range (to 0 or to a subnormal, which keeps few
    digits), raises ScalingRangeError naming the node, where it is scaled
    ("at u = 10", "in the limit") and the base (name, with {} for the node).
    The check reads a min and a max unless an entry is 0 or out of range."""
    factor = base**beta
    scaled = w * factor
    if _all_normal(scaled):
        return scaled
    nonzero = w != 0.0
    scaled[~nonzero] = 0.0  # 0 * inf is nan
    if (lost := nonzero & ((scaled < _TINY) | (scaled == math.inf))).any():
        j = int(np.argmax(lost))
        raise ScalingRangeError(
            f"scaled frequency of node {j + 1} "
            f"{'overflows' if np.isinf(scaled[j]) else f'underflows to {scaled[j]:g}'} {where}: "
            f"omega_{j + 1} = {w[j]:g}, {name.format(j + 1)}**beta = {factor[j]:g}"
        )
    return scaled


def _psi_inverse(model: LevyModel, r: np.ndarray, ph: np.ndarray, x: np.ndarray, squares: tuple) -> np.ndarray:
    """Inverse at x of s -> r * s + phi(ph * s), elementwise over the arrays.

    For phi(s) = a s**2 it is the root 2 x / (r + sqrt(r**2 + 4 a ph**2 x)),
    with (r**2, ph**2) given as squares, whose sums of nonnegative terms do not
    cancel; otherwise Newton from x / r, where psi >= x.  x >= 0.
    """
    a = model.quadratic
    if a is not None:
        r_sq, ph_sq = squares
        return 2.0 * x / (r + np.sqrt(r_sq + 4.0 * a * ph_sq * x))
    return np.array(
        [
            invert_increasing(
                lambda s: rj * s + float(model.laplace_exponent(pj * s)),
                xj,
                lambda s: rj + pj * float(model.laplace_exponent_deriv(pj * s)),
                xj / rj,
            )
            for rj, pj, xj in zip(r.tolist(), ph.tolist(), x.tolist())
        ]
    )


def _front_sums(spec: NetworkSpec, w: np.ndarray) -> np.ndarray:
    """Entry j-1: the sum of phat_l * w_l over l in the front of node j, for every j."""
    return spec.front_matrix @ (spec.phat * w)


# perfbench/tracing.py counts calls to kappa by name
def kappa(spec: NetworkSpec, omega, j: int, u: float) -> float:
    """Drift-gap aggregate attached to the factor of node j (1 <= j <= n-1).

    The sum over nodes l > j of (r_{l-1}/phat_{l-1} - r_l/phat_l) times the
    front sum of l, as the transform computes it (ClassRates.kappas).  Under
    the rate ordering every term is nonnegative, so the result is >= 0.
    """
    n = spec.n
    if not 1 <= j <= n - 1:
        raise IndexError(f"kappa index {j} outside 1..{n-1}")
    w = as_omega(omega, n)
    return float(spec.class_rates(u).kappas(_front_sums(spec, w))[j - 1])


@dataclass(frozen=True)
class LstEvaluation:
    """Value and per-factor constituents of one exact-transform evaluation.

    Entry j-1 of every array belongs to the factor of node j < n: kappa_{j+1},
    delta_j, delta_hat_j, the root Phi_j(kappa_{j+1}), psi_j at delta_j and
    at delta_hat_j, and the factor value.  The deltas, psi and the residual
    come on first read from model, rates (ClassRates) and front_sums.
    """

    value: float
    prefactor: float
    kappa: np.ndarray
    phi_at_kappa: np.ndarray
    factor_values: np.ndarray
    model: LevyModel = field(repr=False)
    rates: ClassRates = field(repr=False)
    front_sums: np.ndarray = field(repr=False)

    @cached_property
    def _psi_points(self) -> list[np.ndarray]:
        """The roots, delta and delta_hat, then psi at each, from one exponent call."""
        r, ph, sums = self.rates.r_at[: len(self.kappa)], self.rates.layout.phat[:-1], self.front_sums
        s = np.concatenate((self.phi_at_kappa, sums[:-1] / ph, sums[1:] / ph)).reshape(3, len(ph))
        return [*s, *(r * s + self.model.laplace_exponent(ph * s))]

    @cached_property
    def max_root_residual(self) -> float:
        return float(np.abs(self._psi_points[3] - self.kappa).max(initial=0.0))

    delta = property(lambda self: self._psi_points[1])
    delta_hat = property(lambda self: self._psi_points[2])
    psi_delta = property(lambda self: self._psi_points[4])
    psi_delta_hat = property(lambda self: self._psi_points[5])


def _class_factors(model: LevyModel, rates: ClassRates, w, sums):
    """The factor formula over the classes of rates.layout.

    rates holds what the formula reads of the rates, and w and sums each
    node's frequency and its front sum within its class.  Returns the
    factors in the layout's order (the inner nodes, then the class ends),
    then kappa and the roots for the inner nodes.  With slope(s, y) = r + ph
    * S(ph * s, ph * y) and S the secant of phi, a class end's factor is its
    prefactor r / slope(w, 0) and every inner node's is slope(root,
    delta_hat) / slope(root, delta), with root the inverse of psi_j at
    kappa_{j+1} over the class slice.  Every secant argument is >= 0 by
    construction, so they go to phi's _secant ordered but unchecked.  Where
    r/phat rises from a node to the next in its class (rates.rise) it raises
    StructuralError; elsewhere every kappa term is >= 0.
    """
    layout = rates.layout
    ph = layout.phat
    m = layout.inner.size
    if not m:  # all classes singletons: every factor is a prefactor
        return rates.r / (rates.r + ph * model._secant(ph * w, 0.0)), _EMPTY, _EMPTY

    if j := rates.rise:
        raise StructuralError(f"r/phat rises from node {j} to node {j + 1}: rate ordering violated within class")
    kap = rates.kappas(sums)
    r_at, ph_at = rates.r_at, layout.phat_at
    roots = _psi_inverse(model, r_at[:m], ph_at[:m], kap, (rates.r_sq, layout.phat_sq))

    # the slopes from each root to delta_hat and to delta, and from w to 0 at
    # the class ends, from one secant call
    hi = ph_at * np.concatenate((roots, roots, w[layout.ends]))
    lo = np.concatenate((sums, _ZERO))[layout.sum_at]
    slopes = r_at + ph_at * model._secant(np.maximum(hi, lo), np.minimum(hi, lo))
    return np.concatenate((slopes[:m], r_at[2 * m :])) / slopes[m:], kap, roots


def _assembled(factors: list[float], what: str) -> float:
    """The product of factors, left to right, clamped to 1.

    A product outside (0, 1] by more than rounding raises SingularFactorError.
    """
    value = math.prod(factors)
    if not math.isfinite(value) or value <= 0.0 or value > 1.0 + 1e-9:
        raise SingularFactorError(f"assembled {what} value {value} outside (0, 1]")
    return min(value, 1.0)


def joint_lst_exact(spec: NetworkSpec, model: LevyModel, omega, u: float) -> LstEvaluation:
    """Exact stationary-workload transform E[exp(-<omega, Q>)] at parameter u.

    Requires omega >= 0 and the rate ordering at u: r/phat must not rise
    from a node to the next, else StructuralError (the u-probe rule of
    validate_assumptions), which keeps every kappa nonnegative.  Every
    factor is a ratio of positive slopes, zero entries of omega included;
    only a product outside (0, 1] raises SingularFactorError.
    """
    w = as_omega(omega, spec.n)
    rates, sums = spec.class_rates(u), _front_sums(spec, w)
    factors, kap, roots = _class_factors(model, rates, w, sums)
    prefactor, values = float(factors[-1]), factors[:-1]
    value = _assembled([prefactor, *values.tolist()], "transform")
    return LstEvaluation(value, prefactor, kap, roots, values, model, rates, sums)
