"""Centered spectrally positive Levy inputs and their Laplace exponents.

Every model exposes phi(s) = log E[exp(-s J(1))] for s >= 0 together with the
power-law tail pair (alpha, coeff) describing phi(s) ~ coeff * s**alpha in the
relevant regime: s -> 0 for vanishing service rates, s -> infinity for
exploding ones.  The sign convention is phi >= 0 with coeff > 0, which is
forced by convexity of the exponent of a centered process (phi(0) = 0,
phi'(0) = 0).

Models are immutable; sampling takes a caller-owned numpy Generator, so
concurrent use needs one generator per thread and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedRegimeError

LIGHT = "light"
HEAVY = "heavy"


@dataclass(frozen=True)
class TailPair:
    """Power-law description of the Laplace exponent in one traffic regime."""

    alpha: float
    coeff: float
    regime: str

    def __post_init__(self):
        if not 1.0 < self.alpha <= 2.0:
            raise ValueError(f"tail exponent must lie in (1, 2], got {self.alpha}")
        if self.coeff <= 0.0:
            raise ValueError(f"tail coefficient must be positive, got {self.coeff}")
        if self.regime not in (LIGHT, HEAVY):
            raise ValueError(f"regime must be 'light' or 'heavy', got {self.regime!r}")

    @property
    def beta(self) -> float:
        """Workload scaling exponent 1/(alpha - 1)."""
        return 1.0 / (self.alpha - 1.0)


def _check_s(s):
    if isinstance(s, float):  # Python and NumPy floats: the scalar call of a root solve
        if s < 0.0:
            raise ValueError("Laplace exponent is defined for s >= 0")
        return np.float64(s)
    s = np.asarray(s, dtype=float)
    if (s < 0.0).any():  # the method: np.any's dispatch doubles the cost of this check
        raise ValueError("Laplace exponent is defined for s >= 0")
    return s


# x - log1p(x) = x**2 * sum_i c_i x**i + O(x**7), and so expm1(-x) + x.  Both
# closed forms cancel to about eps / x relative; the series, used below
# _SERIES_BELOW, is off by about x**5 / 3, so both sides are good to 2e-13.
_X_MINUS_LOG1P = (1 / 2, -1 / 3, 1 / 4, -1 / 5, 1 / 6)
_EXPM1_NEG_PLUS = (1 / 2, -1 / 6, 1 / 24, -1 / 120, 1 / 720)
_SERIES_BELOW = 1e-3


def _poly(x, coeffs):
    """sum_i coeffs[i] * x**i by Horner's rule."""
    total = coeffs[-1]
    for c in coeffs[-2::-1]:
        total = total * x + c
    return total


def _series_where_small(x, closed, coeffs, power=2):
    """The closed form's values `closed` at x, with x**power * _poly(x, coeffs) where x is small.

    A scalar (a root solve's call) takes one branch, and an array has only
    its small entries replaced."""
    small = x < _SERIES_BELOW
    if getattr(x, "ndim", 0):
        if small.any():
            closed[small] = x[small] ** power * _poly(x[small], coeffs)
        return closed
    return float(x) ** power * _poly(float(x), coeffs) if small else closed


def _power_secant(alpha, hi, lo):
    """(hi**alpha - lo**alpha) / (hi - lo) for hi >= lo >= 0, as hi**(alpha - 1) times
    (1 - t**alpha) / (1 - t) with t = lo / hi: two expm1 calls at log1p(-(hi - lo) / hi)."""
    if alpha == 2.0:
        return hi + lo
    with np.errstate(divide="ignore", invalid="ignore"):
        log_t = np.log1p(-(hi - lo) / hi)
        ratio = np.where(hi > lo, np.expm1(alpha * log_t) / np.expm1(log_t), alpha)
        return hi ** (alpha - 1.0) * ratio


def _lengths(dt) -> np.ndarray:
    """dt as an array of positive increment lengths."""
    dt = np.asarray(dt, dtype=float)
    if np.any(dt <= 0.0):
        raise ValueError("dt must be positive")
    return dt


class JobSize:
    """Job-size law B with transform b(s) = E[exp(-s B)].

    Each law gives b(s) - 1 + s * mean, the compound-Poisson exponent per
    unit jump rate, b'(s) + mean and its secants without cancellation.
    """

    def unit_exponent(self, s):
        """b(s) - 1 + s * mean."""
        raise NotImplementedError

    def unit_exponent_deriv(self, s):
        """b'(s) + mean."""
        raise NotImplementedError

    def unit_exponent_secant(self, p, q):
        """The secant of unit_exponent between p >= q >= 0, its derivative at p = q."""
        raise NotImplementedError

    def sample_total(self, counts, rng):
        """Total work of `counts` i.i.d. jobs, vectorized over counts."""
        raise NotImplementedError


@dataclass(frozen=True)
class DeterministicJob(JobSize):
    size: float

    def __post_init__(self):
        if self.size <= 0.0:
            raise ValueError("job size must be positive")

    @property
    def mean(self):
        return self.size

    @property
    def second_moment(self):
        return self.size**2

    def unit_exponent(self, s):
        y = self.size * s
        return _series_where_small(y, np.expm1(-y) + y, _EXPM1_NEG_PLUS)

    def unit_exponent_deriv(self, s):
        return -self.size * np.expm1(-self.size * s)

    def unit_exponent_secant(self, p, q):
        # d * (e + (1 - e) * (1 - exp(-d q))) with e = (expm1(-y) + y) / y in [0, 1)
        y = self.size * (p - q)
        with np.errstate(invalid="ignore"):
            e = _series_where_small(y, (np.expm1(-y) + y) / y, _EXPM1_NEG_PLUS, power=1)
        return self.size * (e - (1.0 - e) * np.expm1(-self.size * q))

    def sample_total(self, counts, rng):
        return np.asarray(counts, dtype=float) * self.size


@dataclass(frozen=True)
class ErlangJob(JobSize):
    """Sum of `stages` exponential phases of rate mu.

    With x = s / mu and a = 1 / (1 + x), b(s) = a**k for k stages, so
    b - 1 + s * mean = x**2 * a * sum_{l<k} (k - l) a**l and
    b' + mean = (k / mu) * x * a * sum_{l<=k} a**l, and the secant between
    p and q is sum_{i<k} (1 - a_p**(i+1) a_q**(k-i)) / mu: every term is positive.
    """

    stages: int
    mu: float

    def __post_init__(self):
        if self.stages < 1:
            raise ValueError("Erlang stage count must be >= 1")
        if self.mu <= 0.0:
            raise ValueError("job rate mu must be positive")

    @property
    def mean(self):
        return self.stages / self.mu

    @property
    def second_moment(self):
        return self.stages * (self.stages + 1) / self.mu**2

    def unit_exponent(self, s):
        x = s / self.mu
        a = 1.0 / (1.0 + x)
        return x * (x * a) * _poly(a, range(self.stages, 0, -1))

    def unit_exponent_deriv(self, s):
        x = s / self.mu
        a = 1.0 / (1.0 + x)
        return self.mean * (x * a) * _poly(a, (1.0,) * (self.stages + 1))

    def unit_exponent_secant(self, p, q):
        lp, lq = np.log1p(p / self.mu), np.log1p(q / self.mu)
        k = self.stages
        return sum(-np.expm1(-(i + 1) * lp - (k - i) * lq) for i in range(k)) / self.mu

    def sample_total(self, counts, rng):
        return rng.gamma(self.stages * np.asarray(counts, dtype=float), 1.0 / self.mu)


def ExponentialJob(mu: float) -> ErlangJob:
    """Exponential job sizes with rate mu: the one-stage Erlang law."""
    return ErlangJob(1, mu)


class LevyModel:
    """Common interface of the admissible input families."""

    def laplace_exponent(self, s):
        """phi(s) = log E[exp(-s J(1))] of the centered process, phi(0) = 0."""
        raise NotImplementedError

    def laplace_exponent_deriv(self, s):
        raise NotImplementedError

    def laplace_exponent_secant(self, a, b):
        """(phi(a) - phi(b)) / (a - b) elementwise, phi'(a) where a = b, without cancellation.

        Each family gives it in _secant(hi, lo), at hi = max(a, b) >= lo = min(a, b)."""
        a, b = _check_s(a), _check_s(b)
        return self._secant(np.maximum(a, b), np.minimum(a, b))

    @property
    def quadratic(self) -> float | None:
        """a when phi(s) = a * s**2 exactly, else None."""
        return None

    def tail_pair(self, regime: str) -> TailPair:
        raise NotImplementedError

    def sample_increment(self, dt, rng: np.random.Generator):
        """Independent draws of J(t + dt) - J(t), mean zero, one per entry of dt.

        dt is an array of lengths, which may differ; the draws have its shape.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class CompoundPoisson(LevyModel):
    """Centered compound Poisson input: jumps at rate lam, sizes from `job`."""

    lam: float
    job: JobSize

    def __post_init__(self):
        # lam = 0 is allowed as the degenerate no-input process.
        if self.lam < 0.0:
            raise ValueError("jump intensity must be nonnegative")

    def laplace_exponent(self, s):
        s = _check_s(s)
        return self.lam * self.job.unit_exponent(s)

    def laplace_exponent_deriv(self, s):
        s = _check_s(s)
        return self.lam * self.job.unit_exponent_deriv(s)

    def _secant(self, hi, lo):
        return self.lam * self.job.unit_exponent_secant(hi, lo)

    def tail_pair(self, regime: str) -> TailPair:
        if regime == HEAVY:
            return TailPair(2.0, self.lam * self.job.second_moment / 2.0, HEAVY)
        if regime == LIGHT:
            raise UnsupportedRegimeError(
                "compound Poisson exponents grow linearly at infinity; "
                "no power tail with alpha > 1 exists in the light regime"
            )
        raise ValueError(f"unknown regime {regime!r}")

    def sample_increment(self, dt, rng):
        dt = _lengths(dt)
        counts = rng.poisson(self.lam * dt, dt.shape)
        return self.job.sample_total(counts, rng) - self.lam * dt * self.job.mean


@dataclass(frozen=True)
class CenteredGamma(LevyModel):
    """Gamma subordinator with shape*t / rate mean removed."""

    shape: float
    rate: float

    def __post_init__(self):
        if self.shape <= 0.0 or self.rate <= 0.0:
            raise ValueError("gamma shape and rate must be positive")

    def laplace_exponent(self, s):
        s = _check_s(s)
        x = s / self.rate
        return self.shape * _series_where_small(x, x - np.log1p(x), _X_MINUS_LOG1P)

    def laplace_exponent_deriv(self, s):
        s = _check_s(s)
        return (self.shape / self.rate) * s / (self.rate + s)

    def _secant(self, hi, lo):
        # (shape / rate) * (q + h(z) / z) / (1 + q) with q = lo / rate,
        # z = (hi - lo) / (rate + lo) >= 0 and h(z) = z - log1p(z)
        q = lo / self.rate
        z = (hi - lo) / (self.rate + lo)
        with np.errstate(invalid="ignore"):
            hz = _series_where_small(z, (z - np.log1p(z)) / z, _X_MINUS_LOG1P, power=1)
        return (self.shape / self.rate) * (q + hz) / (1.0 + q)

    def tail_pair(self, regime: str) -> TailPair:
        if regime == HEAVY:
            return TailPair(2.0, self.shape / (2.0 * self.rate**2), HEAVY)
        if regime == LIGHT:
            raise UnsupportedRegimeError(
                "centered gamma exponents grow linearly at infinity; "
                "no power tail with alpha > 1 exists in the light regime"
            )
        raise ValueError(f"unknown regime {regime!r}")

    def sample_increment(self, dt, rng):
        dt = _lengths(dt)
        return rng.gamma(self.shape * dt, 1.0 / self.rate, dt.shape) - dt * self.shape / self.rate


def _standard_skewed_stable(alpha: float, rng: np.random.Generator, size):
    """Totally right-skewed stable draw, S_alpha(1, +1, 0), for alpha in (1, 2).

    Chambers-Mallows-Stuck transform.  In this parametrization the draw has
    mean zero and E[exp(-s X)] = exp(s**alpha / |cos(pi alpha / 2)|).
    """
    u = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, size)
    w = rng.exponential(1.0, size)
    theta0 = math.atan(math.tan(0.5 * math.pi * alpha)) / alpha
    factor = (math.cos(alpha * theta0) * np.cos(u)) ** (1.0 / alpha)
    term = np.sin(alpha * (u + theta0)) / factor
    tail = (np.cos(alpha * theta0 + (alpha - 1.0) * u) / w) ** ((1.0 - alpha) / alpha)
    return term * tail


@dataclass(frozen=True)
class StableSum(LevyModel):
    """Independent superposition of skewed stable components.

    components: tuple of (alpha_k, scale_k) with alpha_k in (1, 2] and
    scale_k > 0; the exponent is sum_k scale_k * s**alpha_k.  An alpha = 2
    component is Brownian with variance 2 * scale.
    """

    components: tuple[tuple[float, float], ...]

    def __post_init__(self):
        comps = tuple((float(a), float(c)) for a, c in self.components)
        if not comps:
            raise ValueError("at least one stable component required")
        for a, c in comps:
            if not 1.0 < a <= 2.0:
                raise ValueError(f"stable index must lie in (1, 2], got {a}")
            if c <= 0.0:
                raise ValueError(f"stable scale must be positive, got {c}")
        object.__setattr__(self, "components", comps)

    def laplace_exponent(self, s):
        s = _check_s(s)
        return sum(c * s**a for a, c in self.components)

    def laplace_exponent_deriv(self, s):
        s = _check_s(s)
        return sum(c * a * s ** (a - 1.0) for a, c in self.components)

    def _secant(self, hi, lo):
        return sum(c * _power_secant(alpha, hi, lo) for alpha, c in self.components)

    @property
    def quadratic(self) -> float | None:
        if all(a == 2.0 for a, _ in self.components):
            return sum(c for _, c in self.components)
        return None

    def tail_pair(self, regime: str) -> TailPair:
        if regime == HEAVY:
            alpha = min(a for a, _ in self.components)
        elif regime == LIGHT:
            alpha = max(a for a, _ in self.components)
        else:
            raise ValueError(f"unknown regime {regime!r}")
        coeff = sum(c for a, c in self.components if a == alpha)
        return TailPair(alpha, coeff, regime)

    def sample_increment(self, dt, rng):
        dt = _lengths(dt)
        out = np.zeros(dt.shape)
        for a, c in self.components:
            if a == 2.0:
                out += rng.standard_normal(dt.shape) * np.sqrt(2.0 * c * dt)
            else:
                sigma = (dt * c * abs(math.cos(0.5 * math.pi * a))) ** (1.0 / a)
                out += sigma * _standard_skewed_stable(a, rng, dt.shape)
        return out


@dataclass(frozen=True)
class Brownian(LevyModel):
    """Driftless Brownian input with variance sigma2 per unit time."""

    sigma2: float

    def __post_init__(self):
        if self.sigma2 <= 0.0:
            raise ValueError("variance must be positive")

    def laplace_exponent(self, s):
        s = _check_s(s)
        return 0.5 * self.sigma2 * s**2

    def laplace_exponent_deriv(self, s):
        s = _check_s(s)
        return self.sigma2 * s

    def _secant(self, hi, lo):
        return 0.5 * self.sigma2 * (hi + lo)

    @property
    def quadratic(self) -> float:
        return 0.5 * self.sigma2

    def tail_pair(self, regime: str) -> TailPair:
        if regime not in (LIGHT, HEAVY):
            raise ValueError(f"unknown regime {regime!r}")
        return TailPair(2.0, self.sigma2 / 2.0, regime)

    def sample_increment(self, dt, rng):
        dt = _lengths(dt)
        return rng.standard_normal(dt.shape) * np.sqrt(self.sigma2 * dt)
