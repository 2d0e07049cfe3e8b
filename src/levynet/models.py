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
    if np.any(s < 0.0):
        raise ValueError("Laplace exponent is defined for s >= 0")
    return s


def _increment_shape(dt, size):
    """dt as an array, and the shape of the draws: dt's shape broadcast with size."""
    dt = np.asarray(dt, dtype=float)
    if np.any(dt <= 0.0):
        raise ValueError("dt must be positive")
    return dt, np.broadcast_shapes(dt.shape, () if size is None else size)


class JobSize:
    """Job-size law with a closed-form transform b(s) = E[exp(-s B)]."""

    def lst(self, s):
        raise NotImplementedError

    def lst_deriv(self, s):
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

    def lst(self, s):
        return np.exp(-self.size * np.asarray(s, dtype=float))

    def lst_deriv(self, s):
        return -self.size * np.exp(-self.size * np.asarray(s, dtype=float))

    def sample_total(self, counts, rng):
        return np.asarray(counts, dtype=float) * self.size


@dataclass(frozen=True)
class ExponentialJob(JobSize):
    mu: float

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ValueError("job rate mu must be positive")

    @property
    def mean(self):
        return 1.0 / self.mu

    @property
    def second_moment(self):
        return 2.0 / self.mu**2

    def lst(self, s):
        return self.mu / (self.mu + np.asarray(s, dtype=float))

    def lst_deriv(self, s):
        return -self.mu / (self.mu + np.asarray(s, dtype=float)) ** 2

    def sample_total(self, counts, rng):
        # Gamma with integer shape k is the sum of k unit-rate exponentials.
        return rng.gamma(np.asarray(counts, dtype=float), 1.0 / self.mu)


@dataclass(frozen=True)
class ErlangJob(JobSize):
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

    def lst(self, s):
        return (self.mu / (self.mu + np.asarray(s, dtype=float))) ** self.stages

    def lst_deriv(self, s):
        s = np.asarray(s, dtype=float)
        return -self.stages * self.mu**self.stages / (self.mu + s) ** (self.stages + 1)

    def sample_total(self, counts, rng):
        return rng.gamma(self.stages * np.asarray(counts, dtype=float), 1.0 / self.mu)


class LevyModel:
    """Common interface of the admissible input families."""

    def laplace_exponent(self, s):
        """phi(s) = log E[exp(-s J(1))] of the centered process, phi(0) = 0."""
        raise NotImplementedError

    def laplace_exponent_deriv(self, s):
        raise NotImplementedError

    def tail_pair(self, regime: str) -> TailPair:
        raise NotImplementedError

    def sample_increment(self, dt, rng: np.random.Generator, size=None):
        """Independent draws of J(t + dt) - J(t), mean zero.

        dt is a length or an array of lengths, which may differ; the draws
        have dt's shape broadcast with `size`, and a scalar dt without size
        gives one float.
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
        return self.lam * (self.job.lst(s) - 1.0 + s * self.job.mean)

    def laplace_exponent_deriv(self, s):
        s = _check_s(s)
        return self.lam * (self.job.lst_deriv(s) + self.job.mean)

    def tail_pair(self, regime: str) -> TailPair:
        if regime == HEAVY:
            return TailPair(2.0, self.lam * self.job.second_moment / 2.0, HEAVY)
        if regime == LIGHT:
            raise UnsupportedRegimeError(
                "compound Poisson exponents grow linearly at infinity; "
                "no power tail with alpha > 1 exists in the light regime"
            )
        raise ValueError(f"unknown regime {regime!r}")

    def sample_increment(self, dt, rng, size=None):
        dt, shape = _increment_shape(dt, size)
        counts = rng.poisson(self.lam * dt, shape)
        out = self.job.sample_total(counts, rng) - self.lam * dt * self.job.mean
        return out if shape else float(out)


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
        return self.shape * np.log(self.rate / (self.rate + s)) + s * self.shape / self.rate

    def laplace_exponent_deriv(self, s):
        s = _check_s(s)
        return self.shape / self.rate - self.shape / (self.rate + s)

    def tail_pair(self, regime: str) -> TailPair:
        if regime == HEAVY:
            return TailPair(2.0, self.shape / (2.0 * self.rate**2), HEAVY)
        if regime == LIGHT:
            raise UnsupportedRegimeError(
                "centered gamma exponents grow linearly at infinity; "
                "no power tail with alpha > 1 exists in the light regime"
            )
        raise ValueError(f"unknown regime {regime!r}")

    def sample_increment(self, dt, rng, size=None):
        dt, shape = _increment_shape(dt, size)
        out = rng.gamma(self.shape * dt, 1.0 / self.rate, shape) - dt * self.shape / self.rate
        return out if shape else float(out)


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
        with np.errstate(divide="ignore"):
            out = sum(c * a * s ** (a - 1.0) for a, c in self.components)
        return out

    def tail_pair(self, regime: str) -> TailPair:
        if regime == HEAVY:
            alpha = min(a for a, _ in self.components)
        elif regime == LIGHT:
            alpha = max(a for a, _ in self.components)
        else:
            raise ValueError(f"unknown regime {regime!r}")
        coeff = sum(c for a, c in self.components if a == alpha)
        return TailPair(alpha, coeff, regime)

    def sample_increment(self, dt, rng, size=None):
        dt, shape = _increment_shape(dt, size)
        out = np.zeros(shape)
        for a, c in self.components:
            if a == 2.0:
                out += rng.standard_normal(shape) * np.sqrt(2.0 * c * dt)
            else:
                sigma = (dt * c * abs(math.cos(0.5 * math.pi * a))) ** (1.0 / a)
                out += sigma * _standard_skewed_stable(a, rng, shape)
        return out if shape else float(out)


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

    def tail_pair(self, regime: str) -> TailPair:
        if regime not in (LIGHT, HEAVY):
            raise ValueError(f"unknown regime {regime!r}")
        return TailPair(2.0, self.sigma2 / 2.0, regime)

    def sample_increment(self, dt, rng, size=None):
        dt, shape = _increment_shape(dt, size)
        out = rng.standard_normal(shape) * np.sqrt(self.sigma2 * dt)
        return out if shape else float(out)
