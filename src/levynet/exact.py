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
alpha = 2 limit), where the roots are one closed-form array expression.  Per
call the rates are evaluated once, all front sums come from one product with
NetworkSpec.front_matrix, every kappa from one reverse cumulative sum, psi at
the roots, delta and delta_hat from one exponent call, and every slope from
one secant call.  The factor formula is written once, over classes of nodes
(_class_factors), with one factor per node: a class end holds its prefactor
and every other node its ratio.  The exact transform is one class; limit.py
applies the formula to each rate class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularFactorError
from .network import NetworkSpec
from .models import LevyModel
from .roots import invert_increasing

KAPPA_FORMS = ("sum-over-s", "max-ancestor")


def as_omega(omega, n: int) -> np.ndarray:
    """Validate a frequency vector: length n, finite, componentwise >= 0."""
    w = np.asarray(omega, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"frequency vector must have length {n}, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("frequency vector has non-finite entries")
    if (w < 0.0).any():
        raise ValueError("frequency vector must be componentwise nonnegative")
    return w


def _psi_inverse(model: LevyModel, r: np.ndarray, ph: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Inverse at x of s -> r * s + phi(ph * s), elementwise over the arrays.

    For phi(s) = a s**2 it is the root 2 x / (r + sqrt(r**2 + 4 a ph**2 x)),
    whose sums of nonnegative terms do not cancel; otherwise each entry is
    solved by Newton from x / r, where psi >= x.
    """
    if (x < 0.0).any():  # kappa < 0: the rate ordering fails at this u
        raise ValueError(f"cannot invert at negative value {x[x < 0.0][0]}")
    a = model.quadratic
    if a is not None:
        return 2.0 * x / (r + np.sqrt(r * r + 4.0 * a * (ph * ph) * x))
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
    """Entry j-1: the sum of phat_l * w_l over l in fronts[j], for every node j."""
    return spec.front_matrix @ (spec.phat * w)


def _kappas(ratios: np.ndarray, front_sums: np.ndarray) -> np.ndarray:
    """Entry j-1: kappa_j = sum over l > j of (ratios[l-2] - ratios[l-1]) * front_sums[l-1]."""
    terms = (ratios[:-1] - ratios[1:]) * front_sums[1:]
    return np.cumsum(terms[::-1])[::-1]


def kappa(spec: NetworkSpec, omega, j: int, u: float, form: str = "sum-over-s") -> float:
    """Drift-gap aggregate attached to the factor of node j (1 <= j <= n-1).

    Both forms are algebraic rearrangements of the same quantity; under the
    rate ordering every term is nonnegative, so they agree to relative
    rounding error and the result is >= 0.
    """
    n = spec.n
    if not 1 <= j <= n - 1:
        raise IndexError(f"kappa index {j} outside 1..{n-1}")
    if form not in KAPPA_FORMS:
        raise ValueError(f"unknown kappa form {form!r}; expected one of {KAPPA_FORMS}")
    w = as_omega(omega, n)
    ph = spec.phat
    ratios = spec.rate_vector(u) / ph

    if form == "sum-over-s":
        return float(_kappas(ratios, _front_sums(spec, w))[j - 1])

    total = 0.0
    for i in range(j + 1, n + 1):
        anc = max(j, spec.parent[i])
        total += (ratios[anc - 1] - ratios[i - 1]) * ph[i - 1] * w[i - 1]
    return total


@dataclass(frozen=True)
class LstEvaluation:
    """Value and per-factor constituents of one exact-transform evaluation.

    Entry j-1 of every array belongs to the factor of node j < n: kappa_{j+1},
    delta_j, delta_hat_j, the root Phi_j(kappa_{j+1}), psi_j at delta_j and
    at delta_hat_j, and the factor value.
    """

    value: float
    prefactor: float
    max_root_residual: float
    kappa: np.ndarray
    delta: np.ndarray
    delta_hat: np.ndarray
    phi_at_kappa: np.ndarray
    psi_delta: np.ndarray
    psi_delta_hat: np.ndarray
    factor_values: np.ndarray


def _class_factors(model: LevyModel, r, ph, w, sums, ends):
    """The factor formula over classes: the intervals of nodes closed by `ends`.

    r, ph and w hold each node's rate, phat and frequency, and sums its front
    sum within its class; ends holds the 0-based class ends in increasing
    order, the last being n - 1.  Returns the factors, one per node, then the
    largest root residual and, for the nodes inside the classes in node
    order, kappa, delta, delta_hat, the roots and psi at delta and delta_hat.
    With slope(s, y) = r + ph * S(ph * s, ph * y) and S the secant of phi, a
    class end's factor is its prefactor r / slope(w, 0) and every other
    node's is slope(root, delta_hat) / slope(root, delta), with root the
    inverse of psi_j at kappa_{j+1} over the class slice.
    """
    inner = np.ones(len(w), dtype=bool)
    inner[ends] = False
    idx = np.flatnonzero(inner)
    m = idx.size
    if not m:  # all classes singletons: every factor is a prefactor
        return (r / (r + ph * model.laplace_exponent_secant(ph * w, 0.0)), 0.0) + (np.empty(0),) * 6

    ratios = r / ph
    last = ends.tolist()
    first = [0, *(e + 1 for e in last[:-1])]
    kap = np.concatenate(
        [_kappas(ratios[a : b + 1], sums[a : b + 1]) for a, b in zip(first, last) if b > a]
    )
    r_j, ph_j = r[idx], ph[idx]
    roots = _psi_inverse(model, r_j, ph_j, kap)

    # psi at the roots, at delta and at delta_hat from one exponent call: the
    # root residual and the diagnostics, which the factors do not use
    s3 = np.concatenate((roots, sums[idx] / ph_j, sums[idx + 1] / ph_j))
    psi3 = np.tile(r_j, 3) * s3 + model.laplace_exponent(np.tile(ph_j, 3) * s3)
    max_residual = float(np.abs(psi3[:m] - kap).max())

    # the slopes from each root to delta_hat and to delta, and from w to 0 at
    # the class ends, from one secant call
    at = np.concatenate((idx, idx, ends))
    ph_root = ph_j * roots
    slopes = r[at] + ph[at] * model.laplace_exponent_secant(
        np.concatenate((ph_root, ph_root, ph[ends] * w[ends])),
        np.concatenate((sums[idx + 1], sums[idx], np.zeros(len(ends)))),
    )
    factors = np.empty(len(w))
    factors[idx] = slopes[:m] / slopes[m : 2 * m]
    factors[ends] = r[ends] / slopes[2 * m :]
    return factors, max_residual, kap, s3[m : 2 * m], s3[2 * m :], roots, psi3[m : 2 * m], psi3[2 * m :]


def _assembled(factors: list[float], what: str) -> float:
    """The product of factors, left to right, clamped to 1.

    A product outside (0, 1] by more than rounding raises SingularFactorError.
    """
    value = math.prod(factors)
    if not np.isfinite(value) or value <= 0.0 or value > 1.0 + 1e-9:
        raise SingularFactorError(f"assembled {what} value {value} outside (0, 1]", factor_index=0)
    return min(value, 1.0)


def joint_lst_exact(spec: NetworkSpec, model: LevyModel, omega, u: float) -> LstEvaluation:
    """Exact stationary-workload transform E[exp(-<omega, Q>)] at parameter u.

    Preconditions: omega >= 0 and the network assumptions hold at u (the rate
    ordering in particular; it keeps every kappa nonnegative).  Every factor
    is a ratio of positive slopes, zero entries of omega included; only a
    product outside (0, 1] raises SingularFactorError.
    """
    n = spec.n
    w = as_omega(omega, n)
    if u <= 0.0:
        raise ValueError("u must be positive")

    factors, *parts = _class_factors(
        model, spec.rate_vector(u), spec.phat, w, _front_sums(spec, w), np.array([n - 1])
    )
    prefactor, values = float(factors[-1]), factors[:-1]
    value = _assembled([prefactor, *values.tolist()], "transform")
    return LstEvaluation(value, prefactor, *parts, values)
