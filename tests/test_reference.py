"""Both transforms and the exponent secants against the mpmath forms of reference.py.

The frequencies are strictly positive, where the reference's plain quotients
are exact.  Near-removable points, where a factor's numerator and
denominator almost vanish together, are gated here too; the removable
points themselves have their own tests in test_exact and test_limit.
"""

from pathlib import Path

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")

import reference
from conftest import random_spec, tandem_spec
from levynet import (
    Brownian,
    CenteredGamma,
    CompoundPoisson,
    DeterministicJob,
    ErlangJob,
    ExponentialJob,
    RateFunction,
    StableSum,
    TailPair,
    build_network,
    joint_lst_exact,
    joint_lst_limit,
    load_network,
    partition_rates,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

FAMILIES = [
    Brownian(1.3),
    CenteredGamma(2.0, 1.5),
    CompoundPoisson(0.9, ExponentialJob(1.2)),
    CompoundPoisson(1.5, DeterministicJob(0.8)),
    CompoundPoisson(1.1, ErlangJob(3, 2.0)),
    StableSum(((1.5, 0.7),)),
    StableSum(((1.3, 0.5), (2.0, 0.4))),
]


def _network(name):
    return load_network(CONFIGS / f"{name}.network.json")


def _exact_cases(model):
    """(network, u, omega): figure 1, the heavy tandem at frequencies scaled
    as the sweep scales them, and seeded trees with n <= 100."""
    rng = np.random.default_rng(41)
    fig1 = _network("figure1")
    for _ in range(2):
        yield fig1, 4.0, rng.uniform(0.05, 2.5, 6) * fig1.rate_vector(4.0)
    heavy, beta = _network("tandem2_heavy"), model.tail_pair("heavy").beta
    for u in (10.0, 1e4):
        yield heavy, u, rng.uniform(0.1, 2.0, 2) * heavy.rate_vector(u) ** beta
    for n in (5, 12, 20, 100):
        spec = random_spec(rng, n)
        yield spec, 2.0, rng.uniform(0.05, 2.5, n) * spec.rate_vector(2.0)


@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: repr(m)[:50])
def test_exact_matches_reference(model):
    for spec, u, w in _exact_cases(model):
        got = joint_lst_exact(spec, model, w, u).value
        assert got == pytest.approx(reference.exact_lst(spec, model, w, u), rel=1e-12), (spec.n, u)


@pytest.mark.parametrize("model", FAMILIES + [StableSum(((1.05, 0.6),))], ids=lambda m: repr(m)[:50])
def test_exponent_secant_matches_reference(model):
    """The secant against (phi(a) - phi(b)) / (a - b) at 150 digits, and phi'(a) at a = b.

    The pairs cover a in [1e-12, 1e3] with relative gaps from 1e-17 to 1 in
    both directions, a = b and b = 0; 150 digits keep the reference's own
    cancellation far below the gate."""
    rng = np.random.default_rng(47)
    a = 10.0 ** rng.uniform(-12.0, 3.0, 300)
    gap = 10.0 ** rng.uniform(-17.0, 0.0, 300) * rng.choice([-1.0, 1.0], 300)
    b = a * (1.0 + gap)
    b[:30], b[30:60] = a[:30], 0.0
    got = model.laplace_exponent_secant(a, b)
    with mp.workdps(150):
        for x, y, s in zip(a.tolist(), b.tolist(), got.tolist()):
            if x == y:
                want = reference.exponent(model, x)[1]
            else:
                want = (reference.exponent(model, x)[0] - reference.exponent(model, y)[0]) / (
                    mp.mpf(x) - mp.mpf(y)
                )
            assert s == pytest.approx(float(want), rel=5e-13), (x, y)
    assert (got >= 0.0).all()
    assert np.array_equal(model.laplace_exponent_secant(b, a), got)
    np.testing.assert_allclose(got[:30], model.laplace_exponent_deriv(a[:30]), rtol=1e-15)


@pytest.mark.parametrize("model", [FAMILIES[i] for i in (1, 3, 4, 5, 6)], ids=lambda m: repr(m)[:50])
def test_exact_near_removable_points(model):
    """A 2-node tandem with omega_1 = Phi_1(kappa_2) * (1 +- t): the first
    factor's numerator and denominator both shrink like t."""
    spec = tandem_spec([RateFunction.monomial(2.0, 0.0), RateFunction.monomial(1.0, 0.0)])
    for w2 in (0.3, 3.0, 30.0):
        root = joint_lst_exact(spec, model, [1.0, w2], 1.0).phi_at_kappa[0]  # kappa_2 is free of omega_1
        for t in np.geomspace(1e-9, 3e-2, 12):
            for sign in (-1.0, 1.0):
                w = [root * (1.0 + sign * t), w2]
                got = joint_lst_exact(spec, model, w, 1.0).value
                want = reference.exact_lst(spec, model, w, 1.0)
                assert got == pytest.approx(want, rel=1e-13), (w2, sign * t)


def _singleton_class_tree(rng, n):
    """A seeded tree whose leading exponents fall strictly: every node is a class."""
    spec = random_spec(rng, n)
    rates = [RateFunction.monomial(r.leading[0], 2.0 - 0.1 * j) for j, r in enumerate(spec.rates)]
    return build_network(spec.routing, rates)


@pytest.mark.parametrize("alpha", [2.0, 1.5])
def test_limit_matches_reference(alpha):
    rng = np.random.default_rng(43)
    specs = [_network("figure1"), _network("tandem2_heavy")]
    specs += [random_spec(rng, n) for n in (4, 9, 15, 20)]
    specs += [_singleton_class_tree(rng, n) for n in (3, 12)]
    for spec in specs:
        part = partition_rates(spec)
        tail = TailPair(alpha, rng.uniform(0.2, 2.0), "heavy")
        for _ in range(2):
            w = rng.uniform(0.05, 2.5, spec.n)
            got = joint_lst_limit(spec, part, tail, w).value
            assert got == pytest.approx(reference.limit_lst(spec, part, tail, w), rel=1e-12), (spec.n, part.m)
    assert {partition_rates(s).m for s in specs[-2:]} == {3, 12}
