"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest

from levynet import (
    Brownian,
    RateFunction,
    RoutingMatrix,
    SimConfig,
    StableSum,
    TailPair,
    build_network,
    convergence_study,
    empirical_lst,
    joint_lst_exact,
    joint_lst_limit,
    kappa,
    partition_rates,
    simulate_workload,
    singular_limit,
    starred_sets,
)
from levynet import CenteredGamma, CompoundPoisson, ExponentialJob

from conftest import (
    children,
    fronts,
    psi,
    random_model,
    random_spec,
    random_tail,
    rescaled_reference,
    tandem_spec,
)
from oracles import (
    TandemParams,
    TwoLayerParams,
    closed_form_tandem,
    closed_form_two_layer,
    kappa_max_ancestor,
    scaling_coefficients,
)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {number:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_01_figure1_fidelity(figure1_spec, figure1_partition):
    t0 = time.perf_counter()
    spec, part = figure1_spec, figure1_partition
    ok = np.allclose(spec.phat, [1, 0.5, 1 / 6, 1 / 6, 0.5, 1 / 6], rtol=0, atol=0)
    ok &= part.classes == ((1, 2, 3), (4, 5, 6))
    listing = {
        1: ({1}, {1}, {2, 5}, {2}),
        2: ({2, 5}, {2}, {3, 4, 6}, {3}),
        3: ({3, 4, 5, 6}, {3}, set(), set()),
        4: ({4, 5, 6}, {4, 5, 6}, set(), set()),
        5: ({5, 6}, {5, 6}, set(), set()),
        6: ({6}, {6}, set(), set()),
    }
    for j, (front, star_front, child, star_child) in listing.items():
        sf, sc = starred_sets(spec, part, j)
        ok &= fronts(spec, j) == front and sf == star_front
        ok &= children(spec, j) == child and sc == star_child
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, "six-node example fidelity", bool(ok), f"{elapsed:.3f} s")


def test_02_set_relations_on_random_trees():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20_240_201)
    violations = 0
    for _ in range(1000):
        spec = random_spec(rng, int(rng.integers(1, 13)))
        n = spec.n
        nodes = range(1, n + 1)
        front, child = ({j: sets(spec, j) for j in nodes} for sets in (fronts, children))
        for j in nodes:
            downstream = set().union(*(child[l] for l in range(j, n + 1)))
            if front[j] & downstream:
                violations += 1
            if front[j] | downstream != set(range(j, n + 1)):
                violations += 1
            if j < n and front[j + 1] != (front[j] | child[j]) - {j}:
                violations += 1
        for j in nodes:
            for k in nodes:
                if j != k and child[j] & child[k]:
                    violations += 1
                lo = spec.parent[k] + 1 if k > 1 else 1
                if (k in front[j]) != (lo <= j <= k):
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    report(2, "structural set relations on 1000 trees", ok, f"{violations} violations, {elapsed:.2f} s")


def test_03_kappa_form_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20_240_202)
    worst = 0.0
    for _ in range(1000):
        spec = random_spec(rng, int(rng.integers(2, 13)))
        u = rng.uniform(1.0, 8.0)
        w = rng.uniform(0.0, 4.0, spec.n)
        j = int(rng.integers(1, spec.n))
        a = kappa(spec, w, j, u)
        b = kappa_max_ancestor(spec, w, j, u)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    report(3, "drift-gap form equivalence", ok, f"worst rel diff {worst:.2e}, {elapsed:.2f} s")


def test_04_single_queue_reduction():
    models = [
        CompoundPoisson(1.3, ExponentialJob(0.8)),
        CenteredGamma(2.0, 1.7),
        StableSum(((1.4, 0.9),)),
    ]
    rate, u = 1.7, 2.0
    spec = tandem_spec([RateFunction.monomial(rate, 0.0)])
    grid = np.linspace(0.0, 10.0, 50)
    worst = 0.0
    for model in models:
        r = spec.rates[0](u)
        for w in grid:
            got = joint_lst_exact(spec, model, [w], u).value
            expected = 1.0 if w == 0.0 else r * w / psi(spec, model, 1, w, u)
            worst = max(worst, abs(got - expected) / expected)
    sigma2, r_b = 1.0, 2.0
    spec_b = tandem_spec([RateFunction.monomial(r_b, 0.0)])
    worst_b = 0.0
    for w in grid:
        got = joint_lst_exact(spec_b, Brownian(sigma2), [w], 1.0).value
        expected = 1.0 / (1.0 + sigma2 * w / (2.0 * r_b))
        worst_b = max(worst_b, abs(got - expected) / expected)
    ok = worst <= 1e-14 and worst_b <= 1e-12
    report(
        4,
        "single-queue transform reduction",
        ok,
        f"three families worst rel {worst:.2e}, Brownian worst rel {worst_b:.2e}",
    )


def _random_two_layer(rng):
    n_leaves = int(rng.integers(1, 6))
    raw = rng.uniform(0.2, 1.0, n_leaves)
    p = tuple(raw / raw.sum() * rng.uniform(0.6, 1.0))
    slopes = np.cumprod(rng.uniform(0.45, 0.95, n_leaves))
    fr = tuple(s * pj / slopes[0] * 0.9 for s, pj in zip(slopes, p))
    alpha, coeff = rng.uniform(1.15, 2.0), rng.uniform(0.3, 1.5)
    routing = RoutingMatrix.from_edges(1 + n_leaves, [(1, j + 2, pj) for j, pj in enumerate(p)])
    rates = [RateFunction.monomial(5.0, 3.0)]
    rates += [RateFunction.monomial(f, 1.0) for f in fr]
    spec = build_network(routing, rates)
    return spec, TwoLayerParams(p, fr, alpha, coeff), TailPair(alpha, coeff)


def _random_split_tandem(rng, n_max=7):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, min(n, 3) + 1))
    anchors = (1,) if m == 1 else (1, *sorted(int(a) for a in rng.choice(np.arange(2, n + 1), size=m - 1, replace=False)))
    bounds = list(anchors) + [n + 1]
    fr = np.empty(n)
    exps = np.empty(n)
    for k in range(m):
        size = bounds[k + 1] - bounds[k]
        steps = np.concatenate([[1.0], rng.uniform(0.4, 0.9, size - 1)])
        fr[bounds[k] - 1 : bounds[k + 1] - 1] = np.cumprod(steps)
        exps[bounds[k] - 1 : bounds[k + 1] - 1] = 2.0 - 1.5 * k
    alpha, coeff = rng.uniform(1.15, 2.0), rng.uniform(0.3, 1.5)
    spec = tandem_spec([RateFunction.monomial(c, e) for c, e in zip(fr, exps)])
    params = TandemParams(anchors, tuple(fr), alpha, coeff)
    return spec, params, TailPair(alpha, coeff)


def test_05_closed_form_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20_240_205)
    worst = 0.0
    for _ in range(200):
        spec, params, tail = _random_two_layer(rng)
        part = partition_rates(spec)
        w = rng.uniform(0.05, 2.5, spec.n)
        got = joint_lst_limit(spec, part, tail, w).value
        oracle = closed_form_two_layer(params, w)
        worst = max(worst, abs(got - oracle) / oracle)
    for _ in range(200):
        spec, params, tail = _random_split_tandem(rng)
        part = partition_rates(spec)
        w = rng.uniform(0.05, 2.5, spec.n)
        got = joint_lst_limit(spec, part, tail, w).value
        oracle = closed_form_tandem(params, w)
        worst = max(worst, abs(got - oracle) / oracle)
    # fully decoupled chain: the product of Mittag-Leffler transforms
    worst_ml = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        spec = tandem_spec([RateFunction.monomial(1.0, float(n - j)) for j in range(n)])
        part = partition_rates(spec)
        alpha, coeff = rng.uniform(1.15, 2.0), rng.uniform(0.3, 1.5)
        tail = TailPair(alpha, coeff)
        w = rng.uniform(0.05, 2.5, n)
        got = joint_lst_limit(spec, part, tail, w).value
        ml = float(np.prod(1.0 / (1.0 + coeff * w ** (alpha - 1.0))))
        worst_ml = max(worst_ml, abs(got - ml) / ml)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and worst_ml <= 1e-10 and elapsed < 30.0
    report(5, "closed-form oracle agreement", ok, f"worst rel {max(worst, worst_ml):.2e}, {elapsed:.1f} s")


def test_06_monte_carlo_vs_exact():
    t0 = time.perf_counter()
    spec = tandem_spec([RateFunction.monomial(2.0, 0.0), RateFunction.monomial(1.0, 0.0)])
    model = Brownian(1.0)
    cfg = SimConfig(u=1.0, n_rep=100_000, seed=2024)
    samples = simulate_workload(spec, model, cfg)
    axis = np.logspace(np.log10(0.1), np.log10(2.0), 5)
    omegas = [np.array([a, b]) for a in axis for b in axis]
    hits = 0
    worst_z = 0.0
    for est in empirical_lst(samples, omegas):
        exact = joint_lst_exact(spec, model, est.omega, 1.0).value
        z = abs(est.mean - exact) / est.se
        worst_z = max(worst_z, z)
        hits += z <= 3.0
    elapsed = time.perf_counter() - t0
    ok = hits >= 24 and elapsed < 300.0
    report(6, "Monte Carlo vs exact transform", ok, f"{hits}/25 within 3 SE, max z {worst_z:.2f}, {elapsed:.0f} s")


def test_07_convergence_to_limit():
    t0 = time.perf_counter()
    omegas = [np.array([0.5, 0.5]), np.array([0.7, 1.3]), np.array([1.5, 0.4])]
    u_list = [10.0, 100.0, 1000.0]

    spec = tandem_spec([RateFunction.monomial(2.0, -1.0), RateFunction.monomial(1.0, -2.0)])
    part = partition_rates(spec)
    rows = convergence_study(spec, part, Brownian(1.0), "heavy", omegas, u_list)
    ok = True
    final_gap = 0.0
    for w in range(len(omegas)):
        gaps = [rows[i * len(omegas) + w]["gap"] for i in range(len(u_list))]
        ok &= gaps[0] > gaps[1] > gaps[2]
        final_gap = max(final_gap, gaps[2])
    ok &= final_gap < 1e-2

    spec_l = tandem_spec([RateFunction.monomial(1.0, 2.0), RateFunction.monomial(1.0, 1.0)])
    part_l = partition_rates(spec_l)
    rows_l = convergence_study(spec_l, part_l, StableSum(((1.5, 0.8),)), "light", omegas, u_list)
    for w in range(len(omegas)):
        gaps = [rows_l[i * len(omegas) + w]["gap"] for i in range(len(u_list))]
        ok &= gaps[0] > gaps[1] > gaps[2]
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(7, "scaled exact converges to limit", bool(ok), f"heavy final gap {final_gap:.2e}, {elapsed:.1f} s")


def test_08_factorization_and_rescaling():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20_240_208)
    worst_f = 0.0
    worst_r = 0.0
    for _ in range(200):
        spec = random_spec(rng, int(rng.integers(2, 10)))
        part = partition_rates(spec)
        tail = random_tail(rng)
        w = rng.uniform(0.05, 2.5, spec.n)
        full = joint_lst_limit(spec, part, tail, w).value
        product = 1.0
        for k in range(1, part.m + 1):
            restricted = np.zeros(spec.n)
            for i in part.classes[k - 1]:
                restricted[i - 1] = w[i - 1]
            product *= joint_lst_limit(spec, part, tail, restricted).value
        worst_f = max(worst_f, abs(full - product) / full)
        rescaled = part
        for k in range(1, part.m + 1):
            rescaled = rescaled_reference(rescaled, k, float(rng.uniform(0.2, 5.0)))
        other = joint_lst_limit(spec, rescaled, tail, w).value
        worst_r = max(worst_r, abs(full - other) / full)
    elapsed = time.perf_counter() - t0
    ok = worst_f <= 1e-14 and worst_r <= 1e-12
    report(
        8,
        "class factorization and rescaling invariance",
        ok,
        f"factorization {worst_f:.2e}, rescaling {worst_r:.2e}, {elapsed:.1f} s",
    )


def test_09_singular_points():
    rng = np.random.default_rng(20_240_209)
    ok = True
    worst = 0.0
    for _ in range(25):
        # three-node class with the first ratio denominator driven to zero
        fr2, fr3 = rng.uniform(0.5, 0.8), rng.uniform(0.15, 0.4)
        alpha, coeff = rng.uniform(1.2, 2.0), rng.uniform(0.3, 1.2)
        spec = tandem_spec(
            [RateFunction.monomial(c, 2.0) for c in (1.0, fr2, fr3)]
        )
        part = partition_rates(spec)
        tail = TailPair(alpha, coeff)
        w2 = rng.uniform(0.4, 1.2)
        w3 = (fr2 * w2 + coeff * w2**alpha) / (fr2 - fr3)
        scaled = np.array([rng.uniform(0.3, 1.0), w2, w3])
        raw = scaled / part.fractions**tail.beta
        sc = scaling_coefficients(spec, part, tail, raw)
        ok &= abs(sc.den_lead[0]) <= 1e-9 * abs(sc.root_lead[0])
        ok &= sc.den_lead[1] < 0.0  # endpoint never vanishes
        value = singular_limit(spec, part, tail, raw, 1)
        ok &= np.isfinite(value) and value > 0.0
        reference = joint_lst_limit(spec, part, tail, raw + 1e-7).factor_values[0]
        worst = max(worst, abs(value - reference) / reference)
    ok &= worst <= 1e-3
    # endpoint denominator strictly negative on generic positive frequencies
    for _ in range(100):
        spec = random_spec(rng, int(rng.integers(2, 10)))
        part = partition_rates(spec)
        tail = random_tail(rng)
        sc = scaling_coefficients(spec, part, tail, rng.uniform(0.1, 2.5, spec.n))
        for members in part.classes:
            if len(members) > 1:
                ok &= sc.den_lead[members[-1] - 2] < 0.0
    report(9, "removable singular points", bool(ok), f"worst gap to jitter {worst:.2e}")


def test_10_telescoping_identity():
    rng = np.random.default_rng(20_240_210)
    worst = 0.0
    for _ in range(500):
        spec = random_spec(rng, int(rng.integers(2, 10)))
        part = partition_rates(spec)
        tail = random_tail(rng)
        w = rng.uniform(0.0, 3.0, spec.n)
        sc = scaling_coefficients(spec, part, tail, w)
        for j in range(spec.n - 1):
            a_next = sc.drift_gap[j + 1]
            rel = abs(sc.downstream_gap[j] - a_next) / max(abs(a_next), 1e-300)
            worst = max(worst, rel if a_next != 0.0 else abs(sc.downstream_gap[j]))
    ok = worst <= 1e-12
    report(10, "telescoping gap identity", ok, f"worst rel diff {worst:.2e}")
