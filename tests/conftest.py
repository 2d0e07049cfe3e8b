"""Shared fixtures and random-instance generators.

Random networks are built so the structural and ordering assumptions hold by
construction for every u >= 1: parents precede children, per-parent routing
fractions sum below one, rate/phat ratios are generated strictly decreasing
in the node index, and leading exponents are non-increasing with equal
exponents exactly within each class.

psi, delta and delta_hat are scalar restatements of the exact transform's
ingredients, one sum per set; the library computes them as arrays, and the
tests use these as oracles.  fronts and children read a node's sets off the
arrays the transforms multiply by: spec.front_matrix and routing.p.
"""

from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from levynet import (
    Brownian,
    CenteredGamma,
    CompoundPoisson,
    ExponentialJob,
    RateClassPartition,
    RateFunction,
    RoutingMatrix,
    StableSum,
    TailPair,
    build_network,
    load_network,
    partition_rates,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def psi(spec, model, j: int, s: float, u: float) -> float:
    """Drifted-input exponent of node j: r_j(u) * s + phi(phat_j * s)."""
    if s < 0.0:
        raise ValueError("psi is defined for s >= 0")
    return spec.rates[j - 1](u) * s + float(model.laplace_exponent(spec.phat[j - 1] * s))


def fronts(spec, j: int) -> frozenset[int]:
    """The front of node j: the nonzero entries of row j of spec.front_matrix."""
    return frozenset((np.flatnonzero(spec.front_matrix[j - 1]) + 1).tolist())


def children(spec, j: int) -> frozenset[int]:
    """The children of node j: the nonzero entries of row j of the routing matrix."""
    return frozenset((np.flatnonzero(spec.routing.p[j - 1]) + 1).tolist())


def delta(spec, omega, j: int) -> float:
    """Front-weighted frequency sum over the front of j, normalized by phat_j."""
    ph = spec.phat
    return sum(ph[l - 1] * omega[l - 1] for l in fronts(spec, j)) / ph[j - 1]


def delta_hat(spec, omega, j: int) -> float:
    """Like delta but over the front of j + 1; defined for j < n."""
    ph = spec.phat
    return sum(ph[l - 1] * omega[l - 1] for l in fronts(spec, j + 1)) / ph[j - 1]


def random_tree_routing(rng: np.random.Generator, n: int) -> RoutingMatrix:
    if n == 1:
        return RoutingMatrix(np.zeros((1, 1)))
    parents = {j: int(rng.integers(1, j)) for j in range(2, n + 1)}
    kids = defaultdict(list)
    for j, p in parents.items():
        kids[p].append(j)
    edges = []
    for p, js in kids.items():
        raw = rng.uniform(0.2, 1.0, len(js))
        total = raw.sum() / rng.uniform(0.5, 1.0)
        edges.extend((p, j, w / total) for j, w in zip(js, raw))
    return RoutingMatrix.from_edges(n, edges)


def random_rates(rng: np.random.Generator, phat: np.ndarray, max_classes: int = 3):
    """Single-monomial rates with valid ordering for all u >= 1."""
    n = len(phat)
    m = int(rng.integers(1, min(n, max_classes) + 1))
    cuts = sorted(rng.choice(np.arange(1, n), size=m - 1, replace=False)) if m > 1 else []
    bounds = [0, *cuts, n]
    exps = np.empty(n)
    e = rng.uniform(0.5, 2.5)
    for k in range(m):
        exps[bounds[k] : bounds[k + 1]] = e
        e -= rng.uniform(0.7, 1.5)
    t = np.empty(n)
    t[0] = rng.uniform(2.0, 4.0)
    for j in range(1, n):
        t[j] = t[j - 1] * rng.uniform(0.4, 0.9)
    return [RateFunction.monomial(t[j] * phat[j], exps[j]) for j in range(n)]


def random_spec(rng: np.random.Generator, n: int, max_classes: int = 3):
    routing = random_tree_routing(rng, n)
    phat = np.empty(n)
    phat[0] = 1.0
    for j in range(2, n + 1):
        parent = int(np.nonzero(routing.p[:, j - 1] > 0.0)[0][0]) + 1
        phat[j - 1] = routing.p[parent - 1, j - 1] * phat[parent - 1]
    return build_network(routing, random_rates(rng, phat, max_classes))


def seeded_and_shipped_specs(seed: int):
    """Seeded random trees of 1 to 39 nodes, then the networks of the shipped configs."""
    rng = np.random.default_rng(seed)
    specs = [random_spec(rng, int(n)) for n in (1, 2, 3, *rng.integers(4, 40, 12))]
    return specs + [load_network(path) for path in sorted(CONFIGS.glob("*.network.json"))]


def rescaled_reference(partition, k: int, factor: float):
    """partition with class k's reference rate multiplied by factor."""
    refs = list(partition.reference_rates)
    refs[k - 1] = refs[k - 1].scaled(factor)
    return RateClassPartition(partition.spec, tuple(refs))


def random_tail(rng: np.random.Generator) -> TailPair:
    return TailPair(rng.uniform(1.15, 2.0), rng.uniform(0.2, 2.0))


def random_model(rng: np.random.Generator):
    pick = rng.integers(0, 4)
    if pick == 0:
        return Brownian(rng.uniform(0.5, 2.0))
    if pick == 1:
        return CompoundPoisson(rng.uniform(0.5, 2.0), ExponentialJob(rng.uniform(0.5, 2.0)))
    if pick == 2:
        return CenteredGamma(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
    return StableSum(((rng.uniform(1.2, 1.9), rng.uniform(0.3, 1.5)),))


@pytest.fixture(scope="session")
def figure1_spec():
    routing = RoutingMatrix.from_edges(
        6,
        [(1, 2, 0.5), (1, 5, 0.5), (2, 3, 1 / 3), (2, 4, 1 / 3), (2, 6, 1 / 3)],
    )
    rates = [
        RateFunction.monomial(c, e)
        for c, e in [(10, 2), (4, 2), (1, 2), (2, 1), (4, 1), (1, 1)]
    ]
    return build_network(routing, rates)


@pytest.fixture(scope="session")
def figure1_partition(figure1_spec):
    return partition_rates(figure1_spec)


@pytest.fixture(scope="session")
def single_node_spec():
    return build_network(RoutingMatrix(np.zeros((1, 1))), [RateFunction.monomial(2.0, 0.0)])


def tandem_spec(rates):
    """Chain network from a list of RateFunction (full routing, no leaks)."""
    n = len(rates)
    if n == 1:
        return build_network(RoutingMatrix(np.zeros((1, 1))), rates)
    routing = RoutingMatrix.from_edges(n, [(j, j + 1, 1.0) for j in range(1, n)])
    return build_network(routing, rates)
