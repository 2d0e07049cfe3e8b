"""Seeded random tree networks for the transform workload.

The construction satisfies the network assumptions for every u >= 1:
parents precede children (a random recursive tree), each parent's outgoing
fractions sum to less than one, and r_j / phat_j = t_j * u**e_j with t_j
strictly decreasing and e_j non-increasing along the node order.  Nodes with
equal exponents form one rate class.
"""

from __future__ import annotations

import numpy as np

from levynet import network

MAX_CLASSES = 3


def _routing(rng: np.random.Generator, n: int) -> network.RoutingMatrix:
    parents = [int(rng.integers(1, j)) for j in range(2, n + 1)]
    edges = []
    for p in range(1, n):
        kids = [j for j, q in enumerate(parents, start=2) if q == p]
        if not kids:
            continue
        raw = rng.uniform(0.2, 1.0, len(kids))
        kept = rng.uniform(0.5, 1.0)  # share of the parent's output that stays in the network
        edges.extend((p, j, kept * w / raw.sum()) for j, w in zip(kids, raw))
    return network.RoutingMatrix.from_edges(n, edges)


def _network(routing, exps: np.ndarray, decay: np.ndarray) -> network.NetworkSpec:
    t = 3.0 * np.cumprod(np.concatenate([[1.0], decay]))
    ratios = [network.RateFunction.monomial(t[j], float(exps[j])) for j in range(routing.n)]
    # phat depends on the routing only, so a first build with the ratios as rates gives it.
    phat = network.build_network(routing, ratios).phat
    return network.build_network(routing, [r.scaled(ph) for r, ph in zip(ratios, phat)])


def random_tree(rng: np.random.Generator, n: int) -> network.NetworkSpec:
    """Tree with 1..MAX_CLASSES rate classes; r/phat falls by 0.4-0.9 per node."""
    routing = _routing(rng, n)
    m = int(rng.integers(1, min(n, MAX_CLASSES) + 1))
    cuts = np.sort(rng.choice(np.arange(1, n), size=m - 1, replace=False))
    exps = np.empty(n)
    e = rng.uniform(0.5, 2.5)
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        exps[lo:hi] = e
        e -= rng.uniform(0.7, 1.5)
    return _network(routing, exps, rng.uniform(0.4, 0.9, n - 1))


def singleton_class_tree(rng: np.random.Generator, n: int) -> network.NetworkSpec:
    """Tree whose exponents fall strictly, so every node is its own rate class."""
    routing = _routing(rng, n)
    exps = rng.uniform(1.5, 2.5) - np.cumsum(rng.uniform(0.01, 0.05, n))
    return _network(routing, exps, rng.uniform(0.4, 0.9, n - 1))
