"""Both transforms against the 60-digit factor formula of reference.py.

The frequencies are strictly positive, where the reference's plain quotients
are exact; removable points have their own tests in test_exact and test_limit.
"""

from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("mpmath")

import reference
from conftest import random_spec
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
        assert got == pytest.approx(reference.exact_lst(spec, model, w, u), rel=1e-10), (spec.n, u)


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
