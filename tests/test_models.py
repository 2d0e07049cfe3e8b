import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from levynet import (
    Brownian,
    CenteredGamma,
    CompoundPoisson,
    DeterministicJob,
    ErlangJob,
    ExponentialJob,
    StableSum,
    TailPair,
    UnsupportedRegimeError,
)

ALL_MODELS = [
    Brownian(1.3),
    CompoundPoisson(1.5, DeterministicJob(0.8)),
    CompoundPoisson(0.9, ExponentialJob(1.2)),
    CompoundPoisson(1.1, ErlangJob(3, 2.0)),
    CenteredGamma(2.0, 1.5),
    StableSum(((1.5, 0.7), (2.0, 0.4))),
]


@pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
def test_stable_derivative_at_zero_raises_no_warning(alpha):
    model = StableSum(((alpha, 0.7),))
    with np.errstate(all="raise"):
        assert model.laplace_exponent_deriv(0.0) == 0.0
        assert model.laplace_exponent_deriv(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]


def test_gamma_exponent_closed_form():
    model = CenteredGamma(2.0, 3.0)
    for s in (0.1, 1.0, 4.0):
        expected = 2.0 * math.log(3.0 / (3.0 + s)) + s * 2.0 / 3.0
        assert model.laplace_exponent(s) == pytest.approx(expected, rel=1e-15)


def test_compound_poisson_deterministic_exponent():
    model = CompoundPoisson(1.0, DeterministicJob(1.0))
    for s in (0.2, 1.0, 3.0):
        assert model.laplace_exponent(s) == pytest.approx(math.exp(-s) - 1 + s, rel=1e-14)


def test_brownian_exponent_value():
    assert Brownian(1.0).laplace_exponent(2.0) == 2.0


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_exponent_zero_centered_convex(model):
    assert model.laplace_exponent(0.0) == 0.0
    # centering: phi(s)/s -> 0 as s -> 0 (rate s**(alpha-1), slowest at alpha=1.5),
    # with phi > 0 down to where a cancelling form would return rounding noise
    ratios = [model.laplace_exponent(s) / s for s in (1e-4, 1e-6, 1e-10)]
    assert ratios[0] > ratios[1] > ratios[2] > 0.0 and ratios[1] < 1e-2
    # convexity by second differences on a grid, and positivity
    grid = np.linspace(0.0, 5.0, 41)
    vals = np.array([model.laplace_exponent(s) for s in grid])
    assert np.all(vals[1:] > 0.0)
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    assert np.all(second > -1e-12)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_exponent_derivative_matches_finite_difference(model):
    for s in (0.3, 1.0, 2.5):
        h = 1e-6
        fd = (model.laplace_exponent(s + h) - model.laplace_exponent(s - h)) / (2 * h)
        assert model.laplace_exponent_deriv(s) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_negative_s_rejected():
    for s in (-0.1, np.float64(-0.1), np.array([0.5, -0.1])):
        with pytest.raises(ValueError):
            Brownian(1.0).laplace_exponent(s)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_scalar_and_array_exponents_agree(model):
    # Python and NumPy float arguments take a shortcut past the array check
    s = np.array([0.0, 1e-9, 0.3, 2.5])
    for method in (model.laplace_exponent, model.laplace_exponent_deriv):
        batch = method(s)
        for x, want in zip(s.tolist(), batch.tolist()):
            assert method(x) == pytest.approx(want, rel=1e-15, abs=0.0)
            assert method(np.float64(x)) == pytest.approx(want, rel=1e-15, abs=0.0)


def test_tail_pairs_heavy():
    cp = CompoundPoisson(1.5, ExponentialJob(2.0))
    pair = cp.tail_pair("heavy")
    assert pair.alpha == 2.0
    assert pair.coeff == pytest.approx(1.5 * (2.0 / 4.0) / 2.0)
    gamma = CenteredGamma(2.0, 3.0)
    assert gamma.tail_pair("heavy").coeff == pytest.approx(2.0 / (2 * 9.0))
    stable = StableSum(((1.5, 1.0), (2.0, 3.0)))
    heavy = stable.tail_pair("heavy")
    assert (heavy.alpha, heavy.coeff) == (1.5, 1.0)
    light = stable.tail_pair("light")
    assert (light.alpha, light.coeff) == (2.0, 3.0)
    bm = Brownian(1.0).tail_pair("heavy")
    assert (bm.alpha, bm.coeff) == (2.0, 0.5)


def test_light_regime_unsupported_for_bounded_variation_families():
    with pytest.raises(UnsupportedRegimeError, match="^CompoundPoisson input has no power tail"):
        CompoundPoisson(1.0, ExponentialJob(1.0)).tail_pair("light")
    with pytest.raises(UnsupportedRegimeError, match="^CenteredGamma input has no power tail"):
        CenteredGamma(1.0, 1.0).tail_pair("light")


def test_tail_pair_beta_identity():
    pair = TailPair(1.5, 1.0)
    assert pair.beta * (pair.alpha - 1.0) == pytest.approx(1.0, rel=1e-15)
    assert pair.alpha * pair.beta == pytest.approx(pair.beta + 1.0, rel=1e-15)


@pytest.mark.parametrize(
    "model, var",
    [
        (Brownian(1.7), 1.7),
        (CompoundPoisson(1.0, ExponentialJob(1.0)), 2.0),  # lam * E[B^2]
        (CenteredGamma(2.0, 1.5), 2.0 / 1.5**2),  # shape / rate^2
    ],
    ids=["brownian", "compound-poisson", "gamma"],
)
def test_increment_moments(model, var):
    rng = np.random.default_rng(123)
    n = 10**6
    dt = 1.0
    x = model.sample_increment(np.full(n, dt), rng)
    se_mean = math.sqrt(var / n)
    assert abs(x.mean()) < 4 * se_mean
    assert x.var() == pytest.approx(var, rel=0.02)
    # an array of unequal lengths: column k has variance var * dts[k]
    dts = np.array([0.5, 1.0, 4.0])
    x = model.sample_increment(np.tile(dts, (n // 4, 1)), rng)
    assert x.shape == (n // 4, 3)
    se_means = np.sqrt(var * dts / (n // 4))
    assert np.all(np.abs(x.mean(axis=0)) < 4 * se_means)
    assert x.var(axis=0) == pytest.approx(var * dts, rel=0.03)


def test_tail_pair_asymptote():
    # phi(s)/s^alpha -> coeff along the regime's direction
    stable = StableSum(((1.5, 0.7), (2.0, 0.4)))
    heavy = stable.tail_pair("heavy")
    ratios = [stable.laplace_exponent(s) / s**heavy.alpha for s in (1e-2, 1e-4, 1e-6)]
    errs = [abs(r - heavy.coeff) for r in ratios]
    assert errs == sorted(errs, reverse=True) and errs[-1] < 1e-3
    light = stable.tail_pair("light")
    ratios = [stable.laplace_exponent(s) / s**light.alpha for s in (1e2, 1e4, 1e6)]
    errs = [abs(r - light.coeff) for r in ratios]
    assert errs == sorted(errs, reverse=True) and errs[-1] < 1e-3


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_sampler_exponent_agreement(model):
    # E[exp(-s * increment(dt))] = exp(dt * phi(s)), checked within Monte Carlo CI
    rng = np.random.default_rng(7)
    dt = 0.5
    n = 400_000
    x = model.sample_increment(np.full(n, dt), rng)
    for s in (0.5, 1.0):
        vals = np.exp(-s * x)
        mean, se = vals.mean(), vals.std(ddof=1) / math.sqrt(n)
        expected = math.exp(dt * model.laplace_exponent(s))
        assert abs(mean - expected) < 4 * se + 1e-12


def test_stable_sampler_laplace_transform():
    model = StableSum(((1.5, 0.9),))
    rng = np.random.default_rng(21)
    dt = 0.7
    x = model.sample_increment(np.full(500_000, dt), rng)
    for s in (0.5, 1.0):
        emp = math.log(np.mean(np.exp(-s * x)))
        assert emp == pytest.approx(dt * 0.9 * s**1.5, rel=0.02)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Brownian(0.0)
    with pytest.raises(ValueError):
        CompoundPoisson(-1.0, ExponentialJob(1.0))
    # a jump rate of 0 is no input process: refused like every other parameter at 0
    with pytest.raises(ValueError, match="^jump intensity must be positive and finite, got 0.0"):
        CompoundPoisson(0.0, ExponentialJob(1.0))
    with pytest.raises(ValueError):
        StableSum(((1.0, 1.0),))
    with pytest.raises(ValueError):
        CenteredGamma(1.0, -2.0)
    with pytest.raises(ValueError):
        Brownian(1.0).sample_increment(0.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        Brownian(1.0).sample_increment(np.array([0.5, 0.0]), np.random.default_rng(0))
    # every family and job law refuses a parameter that is nan or infinite
    for bad in (math.nan, math.inf):
        for make in (
            lambda x: Brownian(x),
            lambda x: CenteredGamma(x, 1.0),
            lambda x: CenteredGamma(1.0, x),
            lambda x: CompoundPoisson(x, ExponentialJob(1.0)),
            lambda x: StableSum(((1.5, x),)),
            lambda x: StableSum(((x, 1.0),)),
            lambda x: DeterministicJob(x),
            lambda x: ErlangJob(2, x),
        ):
            with pytest.raises(ValueError):
                make(bad)
    for stages in (2.5, True, 0):
        with pytest.raises(ValueError, match="^Erlang stage count must be"):
            ErlangJob(stages, 1.0)
    # a tail pair is the stable input it builds: alpha in (1, 2], a finite coeff > 0
    with pytest.raises(ValueError, match=r"^stable index must lie in \(1, 2\], got 2.5"):
        TailPair(2.5, 1.0)
    with pytest.raises(ValueError, match="^stable scale must be positive and finite, got nan"):
        TailPair(1.5, math.nan)
    with pytest.raises(ValueError, match="^unknown regime 'x'"):
        Brownian(1.0).tail_pair("x")


def test_a_stable_sum_needs_a_component():
    with pytest.raises(ValueError, match="^at least one stable component required$"):
        StableSum(())


def _family(kind, a, b):
    """One input of each family, with two parameters drawn in [0.2, 5]."""
    return {
        "brownian": Brownian(a),
        "gamma": CenteredGamma(a, b),
        "cp-deterministic": CompoundPoisson(a, DeterministicJob(b)),
        "cp-exponential": CompoundPoisson(a, ExponentialJob(b)),
        "cp-erlang3": CompoundPoisson(a, ErlangJob(3, b)),
        "stable-sum": StableSum(((1.1 + 0.8 * a / 5.0, b), (2.0, a))),
    }[kind]


@given(
    st.sampled_from(
        ["brownian", "gamma", "cp-deterministic", "cp-exponential", "cp-erlang3", "stable-sum"]
    ),
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=-12.0, max_value=3.0),
    st.floats(min_value=-10.0, max_value=1.0),
)
def test_exponent_nonnegative_and_nondecreasing(kind, a, b, log_s, log_step):
    # phi and phi' vanish at 0 and are positive after it in floating point
    # too, and phi does not decrease between two points further apart than
    # its rounding error (about 2e-13 relative) can bridge
    model = _family(kind, a, b)
    s = 10.0**log_s
    t = s * (1.0 + 10.0**log_step)
    phi, dphi = model.laplace_exponent, model.laplace_exponent_deriv
    assert phi(0.0) == 0.0 and dphi(0.0) == 0.0
    # the array call, and the scalar calls of a root solve
    for values, slopes in (
        (phi(np.array([s, t])), dphi(np.array([s, t]))),
        ((phi(s), phi(t)), (dphi(s), dphi(t))),
    ):
        assert 0.0 < values[0] <= values[1]
        assert min(slopes) > 0.0


# (model, a, rel, abs) with phi(s) = a * s**2 to rounding: exactly for one
# term, and for a sum of terms to the roundings that separate
# sum_k c_k s**2 from (sum_k c_k) s**2, five half-ulps (three subnormal
# steps where s**2 is subnormal)
_TINY = 5e-324
_QUADRATIC = [
    (Brownian(1.3), 1.3 / 2.0, 0.0, 0.0),
    (StableSum(((2.0, 0.4),)), 0.4, 0.0, 0.0),
    (StableSum(((2.0, 0.4), (2.0, 0.3))), 0.4 + 0.3, 5 * 2.0**-53, 3 * _TINY),
]
_NOT_QUADRATIC = [
    CenteredGamma(2.0, 1.5),
    CompoundPoisson(1.5, DeterministicJob(0.8)),
    CompoundPoisson(0.9, ExponentialJob(1.2)),
    CompoundPoisson(1.1, ErlangJob(3, 2.0)),
    StableSum(((1.5, 0.7),)),
    StableSum(((1.999, 0.7),)),
    StableSum(((1.5, 0.7), (2.0, 0.4))),
]


def test_quadratic_coefficient():
    for model, a, *_ in _QUADRATIC:
        assert model.quadratic == a
    for model in _NOT_QUADRATIC:
        assert model.quadratic is None
    with pytest.raises(AttributeError):
        Brownian(1.3).quadratic = 1.0


@given(st.sampled_from(_QUADRATIC), st.floats(min_value=0.0, max_value=1e6))
def test_quadratic_exponent_is_a_times_s_squared(case, s):
    model, _, rel, tiny = case
    assert model.laplace_exponent(s) == pytest.approx(model.quadratic * s**2, rel=rel, abs=tiny)


# each input whose textbook exponent cancels at small s, with the s where its
# closed form gives way to a Taylor series (s / rate or s * size = 1e-3; Erlang
# jobs need no series, and their grid is refined at s / mu = 1e-3 alike)
_CANCELLING = [
    (CenteredGamma(2.0, 1.5), 1.5e-3),
    (CompoundPoisson(0.9, DeterministicJob(0.8)), 1e-3 / 0.8),
    (CompoundPoisson(1.0, ExponentialJob(1.0)), 1e-3),
    (CompoundPoisson(1.1, ErlangJob(3, 2.0)), 2e-3),
]


@pytest.mark.parametrize("model, switch", _CANCELLING, ids=lambda v: repr(v)[:60])
def test_exponent_matches_high_precision(model, switch):
    # the library's forms keep their relative accuracy from 1e-12 to 1e3, on
    # both sides of the switch to a Taylor series
    mp = pytest.importorskip("mpmath")
    from reference import exponent

    near = switch * (1.0 + np.linspace(-1e-3, 1e-3, 9))
    grid = np.concatenate([np.logspace(-12.0, 3.0, 151), near])
    phi, dphi = model.laplace_exponent(grid), model.laplace_exponent_deriv(grid)
    with mp.workdps(50):
        for s, batch, batch_d in zip(grid.tolist(), phi.tolist(), dphi.tolist()):
            want, want_d = exponent(model, s)
            # the array call, and the scalar call of a root solve
            for got in (batch, model.laplace_exponent(s)):
                assert abs(got - want) <= 1e-12 * want, s
            for got_d in (batch_d, model.laplace_exponent_deriv(s)):
                assert abs(got_d - want_d) <= 1e-14 * want_d, s
