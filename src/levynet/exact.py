"""Exact joint transform of the stationary workload at fixed service rates.

The value at frequencies omega >= 0 is a prefactor r_n * w_n / psi_n(w_n)
times, for every node j < n, a ratio of two expressions of the shape

    (Phi_j(x) - y) / (x - psi_j(y)),

with x the drift-gap aggregate kappa_{j+1} and y one of two front-weighted
frequency sums.  Because psi_j is strictly increasing, numerator and
denominator of that shape always share their sign and vanish together, so
each factor is evaluated through the difference quotient of psi_j between
Phi_j(x) and y; the point x = psi_j(y) is removable with value 1/psi_j'(y).
Frequencies with zero entries are therefore handled by continuous extension
instead of special cases.

Cost of one evaluation: O(n^2) array work, plus n - 1 scalar root solves
unless phi is quadratic.  The front structure is built once by
network.build_network (NetworkSpec.front_matrix); per call the rates are
evaluated once, all front sums come from one matrix product, every kappa from
one reverse cumulative sum over them, the exponents at delta, at delta_hat and
(for the prefactor) at w_n from one array call, and the difference quotients
of numerators and denominators from one array pass.  The inversions
Phi_j(kappa_{j+1}) are one closed-form array expression when phi(s) = a s**2
(LevyModel.quadratic: Brownian input and every alpha = 2 limit), and one
Newton solve per factor otherwise.  The factor formula is written once, over
classes of nodes (_class_factors), with one factor per node: a class end holds
its prefactor and every other node its ratio.  The exact transform is one
class, so its prefactor is the last entry; limit.py applies the formula to
each rate class.
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
_BAND_RTOL = 1e-6
_MIDPOINT_RTOL = 1e-6
_EPS = float(np.finfo(float).eps)


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


def _diffq_inv(s, y, psi_s, psi_y, dpsi, j):
    """(s - y) / (psi(s) - psi(y)) elementwise, with the removable point s = y handled.

    psi_s and psi_y are psi evaluated at s and y, dpsi evaluates psi'
    elementwise and j holds each entry's node, 0-based.  psi is
    increasing and convex, so the exact quotient lies between
    1/psi'(max(s, y)) and 1/psi'(min(s, y)).  It is computed in whichever of
    two ways has the smaller error estimate, both relative and so free of the
    units of u and omega:
    - from the gaps, (s - y) / (psi_s - psi_y): rounding error about
      4 eps * max(|psi_s|, |psi_y|) / |psi_s - psi_y|, and usable only when
      the gap quotient lies in the band psi' allows (outside it the exponent
      gap is lost to rounding, as at s = y);
    - as 1 / psi'((s + y) / 2), the midpoint rule: error about
      |psi'(lo) + psi'(hi) - 2 psi'(mid)| / (6 psi'(mid)), zero for quadratic
      psi and at s = y.
    A factor with neither a usable gap quotient nor a midpoint value good to
    _MIDPOINT_RTOL is reported singular.
    """
    num = s - y
    den = psi_s - psi_y
    d_lo = dpsi(np.minimum(s, y))
    d_mid = dpsi(0.5 * (s + y))
    d_hi = dpsi(np.maximum(s, y))
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = den / num
        in_band = (slope >= d_lo * (1.0 - _BAND_RTOL)) & (slope <= d_hi * (1.0 + _BAND_RTOL))
        gap_err = 4.0 * _EPS * np.maximum(np.abs(psi_s), np.abs(psi_y)) / np.abs(den)
        mid_err = np.abs(d_lo + d_hi - 2.0 * d_mid) / (6.0 * d_mid)
        use_gap = in_band & (gap_err < mid_err)
        bad = np.flatnonzero(~(use_gap | (mid_err <= _MIDPOINT_RTOL)))
        if bad.size:
            i = bad[0]
            raise SingularFactorError(
                f"factor {j[i] + 1}: exponent gap {den[i]:.3e} outside the range "
                f"[{d_lo[i] * num[i]:.3e}, {d_hi[i] * num[i]:.3e}] that psi' allows "
                f"for the frequency gap {num[i]:.3e}",
                factor_index=int(j[i]) + 1,
            )
        return np.where(use_gap, num / den, 1.0 / d_mid)


def _class_factors(model: LevyModel, r, ph, w, sums, ends):
    """The factor formula over classes: the intervals of nodes closed by `ends`.

    r, ph and w hold each node's rate, phat and frequency, and sums its front
    sum within its class; ends holds the 0-based class ends in increasing
    order, the last being n - 1.  Returns the factors, one per node, then the
    largest root residual and, for the nodes inside the classes in node
    order, kappa, delta, delta_hat, the roots and psi at delta and delta_hat.
    A class end's factor is its prefactor r w / psi(w), or 1 at w = 0.  Every
    other node j holds _diffq_inv(root, delta) / _diffq_inv(root, delta_hat),
    with root the inverse of psi_j at kappa_{j+1} over the class slice: in
    closed form for quadratic phi, else by one Newton solve per node.
    """
    inner = np.ones(len(w), dtype=bool)
    inner[ends] = False
    idx = np.flatnonzero(inner)
    m = idx.size

    # psi at delta and at delta_hat of the inner nodes, and at w of the class
    # ends for their prefactors, from one exponent call
    at = np.concatenate((idx, idx, ends))
    r3, ph3 = r[at], ph[at]
    y = np.concatenate((sums[idx], sums[idx + 1], w[ends]))
    y[: 2 * m] /= ph3[: 2 * m]
    psi_y = r3 * y + model.laplace_exponent(ph3 * y)
    w_e = y[2 * m :]
    rw_e = r3[2 * m :] * w_e
    factors = np.ones(len(w))
    # 1 at w = 0: centering makes psi'(0) = r, so w/psi(w) -> 1/r
    factors[ends] = np.divide(rw_e, psi_y[2 * m :], out=np.ones(len(ends)), where=w_e != 0.0)
    if not m:  # all classes singletons: the passes below would only add cost
        return (factors, 0.0) + (np.empty(0),) * 6

    ratios = r / ph
    last = ends.tolist()
    first = [0, *(e + 1 for e in last[:-1])]
    kap = np.concatenate(
        [_kappas(ratios[a : b + 1], sums[a : b + 1]) for a, b in zip(first, last) if b > a]
    )
    r_j, ph_j = r3[:m], ph3[:m]
    roots = _psi_inverse(model, r_j, ph_j, kap)
    # the factor quotients use psi at the computed roots rather than kappa, so
    # the root residual does not enter them
    psi_roots = r_j * roots + model.laplace_exponent(ph_j * roots)
    max_residual = float(np.abs(psi_roots - kap).max(initial=0.0))

    # the delta entries, then the delta_hat entries: one pass of the
    # difference quotients gives numerators and denominators
    r2, ph2 = r3[: 2 * m], ph3[: 2 * m]

    def dpsi(s):
        return r2 + ph2 * model.laplace_exponent_deriv(ph2 * s)

    roots2, psi_roots2 = np.concatenate((roots, roots)), np.concatenate((psi_roots, psi_roots))
    q = _diffq_inv(roots2, y[: 2 * m], psi_roots2, psi_y[: 2 * m], dpsi, at[: 2 * m])
    factors[idx] = q[:m] / q[m:]
    return factors, max_residual, kap, y[:m], y[m : 2 * m], roots, psi_y[:m], psi_y[m : 2 * m]


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
    ordering in particular; it keeps every kappa nonnegative).  Zero entries
    of omega are handled by continuous extension; a genuinely degenerate
    factor raises SingularFactorError carrying the factor index, and the
    caller may jitter omega.
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
