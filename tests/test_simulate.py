import math

import numpy as np
import pytest
from scipy import stats

from levynet import (
    Brownian,
    CenteredGamma,
    CompoundPoisson,
    DeterministicJob,
    ExponentialJob,
    RateFunction,
    SimConfig,
    StableSum,
    convergence_study,
    default_horizon,
    empirical_lst,
    horizon_diagnostic,
    joint_lst_exact,
    partition_rates,
    simulate_workload,
)

from levynet import simulate
from conftest import tandem_spec

# (model, figure-1 frequency scale) for the four input families
FAMILIES = {
    "brownian": (Brownian(1.0), 0.3),
    "gamma": (CenteredGamma(2.0, 2.0), 1.0),
    "compound-poisson": (CompoundPoisson(1.0, ExponentialJob(1.0)), 1.0),
    "stable": (StableSum(((1.5, 0.5),)), 10.0),
}


@pytest.fixture(scope="module")
def brownian_tandem():
    spec = tandem_spec([RateFunction.monomial(2.0, 0.0), RateFunction.monomial(1.0, 0.0)])
    return spec, Brownian(1.0)


def test_zero_input_process_gives_zero_workload():
    spec = tandem_spec([RateFunction.monomial(1.0, 0.0), RateFunction.monomial(0.5, 0.0)])
    model = CompoundPoisson(0.0, DeterministicJob(1.0))
    q = simulate_workload(spec, model, SimConfig(u=1.0, n_rep=500, seed=1, horizon=10.0))
    assert np.all(q == 0.0)


def test_single_node_brownian_is_exponential():
    spec = tandem_spec([RateFunction.monomial(1.0, 0.0)])
    model = Brownian(1.0)
    q = simulate_workload(spec, model, SimConfig(u=1.0, n_rep=10_000, seed=2))[:, 0]
    # reflected Brownian stationary law: Exponential with rate 2 r / sigma^2
    res = stats.kstest(q, "expon", args=(0.0, 0.5))
    assert res.pvalue > 0.01


def test_single_node_mm1_tail():
    lam, mu, r = 0.8, 1.0, 0.5
    spec = tandem_spec([RateFunction.monomial(r, 0.0)])
    model = CompoundPoisson(lam, ExponentialJob(mu))
    q = simulate_workload(spec, model, SimConfig(u=1.0, n_rep=30_000, seed=3))[:, 0]
    speed = r + lam / mu
    rho = lam / (speed * mu)
    for x in (0.5, 1.0, 2.0):
        theo = rho * math.exp(-(mu - lam / speed) * x)
        emp = float((q > x).mean())
        se = math.sqrt(theo * (1 - theo) / len(q))
        assert abs(emp - theo) < 4 * se


def test_workload_nonnegative_and_seed_deterministic(brownian_tandem):
    spec, model = brownian_tandem
    cfg = SimConfig(u=1.0, n_rep=2000, seed=11)
    q1 = simulate_workload(spec, model, cfg)
    q2 = simulate_workload(spec, model, cfg)
    assert np.array_equal(q1, q2)
    assert np.all(q1 > -1e-9)
    q3 = simulate_workload(spec, model, SimConfig(u=1.0, n_rep=2000, seed=12))
    assert not np.array_equal(q1, q3)


def test_worker_count_does_not_change_results(brownian_tandem, monkeypatch):
    spec, _ = brownian_tandem
    base = SimConfig(u=1.0, n_rep=4000, seed=5, n_workers=1)
    multi = SimConfig(u=1.0, n_rep=4000, seed=5, n_workers=3)
    assert base.n_rep > 3 * simulate._CHUNK  # several chunks to share out
    for model, _ in FAMILIES.values():
        q1 = simulate_workload(spec, model, base)
        q2 = simulate_workload(spec, model, multi)
        assert np.array_equal(q1, q2)
        with monkeypatch.context() as m:
            m.setenv("LEVYNET_THREADS", "1")
            q3 = simulate_workload(spec, model, multi)
        assert np.array_equal(q1, q3)


def test_empirical_lst_basics(brownian_tandem):
    spec, model = brownian_tandem
    q = simulate_workload(spec, model, SimConfig(u=1.0, n_rep=5000, seed=7))
    zero = empirical_lst(q, [np.zeros(2)])[0]
    assert zero.mean == 1.0 and zero.se == 0.0
    small, large = empirical_lst(q, [np.array([0.5, 0.5]), np.array([5.0, 5.0])])
    assert large.mean < small.mean <= 1.0
    assert small.ci_low < small.mean < small.ci_high
    with pytest.raises(ValueError):
        empirical_lst(q[:1], [np.zeros(2)])


def test_tandem_agrees_with_exact(brownian_tandem):
    spec, model = brownian_tandem
    q = simulate_workload(spec, model, SimConfig(u=1.0, n_rep=20_000, seed=13))
    rng = np.random.default_rng(1)
    hits = 0
    total = 12
    for _ in range(total):
        w = rng.uniform(0.0, 2.0, 2)
        est = empirical_lst(q, [w])[0]
        exact = joint_lst_exact(spec, model, w, 1.0).value
        if est.se == 0.0:
            hits += exact == est.mean
        else:
            hits += abs(est.mean - exact) <= 3.0 * est.se
    assert hits >= total - 1


def test_branched_network_compound_poisson_agrees_with_exact():
    # pins the transform's front/child handling on a branching tree
    from levynet import RoutingMatrix, build_network

    routing = RoutingMatrix.from_edges(
        6, [(1, 2, 0.5), (1, 5, 0.5), (2, 3, 1 / 3), (2, 4, 1 / 3), (2, 6, 1 / 3)]
    )
    rates = [
        RateFunction.monomial(c, e)
        for c, e in [(10, 2), (4, 2), (1, 2), (2, 1), (4, 1), (1, 1)]
    ]
    spec = build_network(routing, rates)
    model = CompoundPoisson(2.0, ExponentialJob(1.5))
    q = simulate_workload(spec, model, SimConfig(u=3.0, n_rep=40_000, seed=101))
    rng = np.random.default_rng(8)
    hits = 0
    total = 10
    for _ in range(total):
        w = rng.uniform(0.0, 2.5, 6) * rng.integers(0, 2, 6)
        est = empirical_lst(q, [w])[0]
        exact = joint_lst_exact(spec, model, w, 3.0).value
        hits += exact == est.mean if est.se == 0.0 else abs(est.mean - exact) <= 3.0 * est.se
    assert hits >= total - 1


def test_limit_matches_simulation_at_large_u():
    # closes the triangle: simulated scaled workload ~ exact transform, whose
    # remaining distance to the limit is the finite-u gap
    from levynet import joint_lst_limit

    spec = tandem_spec([RateFunction.monomial(2.0, -1.0), RateFunction.monomial(1.0, -2.0)])
    model = Brownian(1.0)
    part = partition_rates(spec)
    tail = model.tail_pair("heavy")
    u = 60.0
    rv = spec.rate_vector(u)
    q = simulate_workload(spec, model, SimConfig(u=u, n_rep=30_000, seed=301))
    for w in (np.array([0.5, 0.5]), np.array([0.7, 1.3])):
        scaled = w * rv**tail.beta
        est = empirical_lst(q, [scaled])[0]
        exact = joint_lst_exact(spec, model, scaled, u).value
        lim = joint_lst_limit(spec, part, tail, w).value
        assert abs(est.mean - exact) <= 3.5 * est.se
        assert abs(est.mean - lim) <= abs(exact - lim) + 3.5 * est.se


def test_deep_multiscale_tree_agrees_with_exact():
    # 12 nodes with rate scales thousands apart: the sticks must reach below
    # the fastest node's relaxation time while the horizon covers the slowest
    from conftest import random_spec

    rng = np.random.default_rng(2025)
    spec = random_spec(rng, 12, max_classes=3)
    model = Brownian(1.0)
    u = 2.0
    q = simulate_workload(spec, model, SimConfig(u=u, n_rep=8000, seed=77))
    assert np.all(q > -1e-9)
    hits = 0
    total = 6
    for _ in range(total):
        w = rng.uniform(0.0, 1.5, 12)
        est = empirical_lst(q, [w])[0]
        exact = joint_lst_exact(spec, model, w, u).value
        hits += abs(est.mean - exact) <= 3.0 * est.se
    assert hits >= total - 1


@pytest.mark.parametrize("network", ["tandem", "figure1"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_monte_carlo_matches_exact_for_every_family(family, network, brownian_tandem, figure1_spec):
    # two-sided: 24 of 25 frequencies within 3 SE of the exact transform
    model, fig1_scale = FAMILIES[family]
    if network == "tandem":
        spec, u = brownian_tandem[0], 1.0
        axis = np.logspace(np.log10(0.1), np.log10(2.0), 5)
        omegas = [np.array([a, b]) for a in axis for b in axis]
    else:
        spec, u = figure1_spec, 4.0
        coeff = model.tail_pair("heavy").coeff
        scale = fig1_scale * spec.rate_vector(u) / (spec.phat**2 * coeff)
        omegas = list(np.random.default_rng(41).uniform(0.1, 2.0, (25, spec.n)) * scale)
    q = simulate_workload(spec, model, SimConfig(u=u, n_rep=20_000, seed=43))
    z = [
        abs(est.mean - joint_lst_exact(spec, model, est.omega, u).value) / est.se
        for est in empirical_lst(q, omegas)
    ]
    assert sum(x <= 3.0 for x in z) >= 24, max(z)


def test_horizon_doubling_diagnostic(brownian_tandem):
    spec, model = brownian_tandem
    cfg = SimConfig(u=1.0, n_rep=8000, seed=19)
    rows = horizon_diagnostic(spec, model, cfg, [np.array([0.5, 0.5]), np.array([1.0, 1.0])])
    for row in rows:
        assert abs(row["diff"]) <= max(row["se"], 3.0 * row["se_diff"] + 1e-9)


def test_horizon_diagnostic_stable_input(brownian_tandem):
    spec, _ = brownian_tandem
    model = StableSum(((1.5, 0.5),))
    omegas = [np.array([0.5, 0.5]), np.array([1.0, 1.0])]
    cfg = SimConfig(u=1.0, n_rep=20_000, seed=37)
    for row in horizon_diagnostic(spec, model, cfg, omegas):
        assert abs(row["diff"]) <= 3.0 * row["se_diff"]
    # control: at 1e4 relaxation times the power tail still shows
    short = SimConfig(u=1.0, n_rep=20_000, seed=37, horizon=2.5e3)
    for row in horizon_diagnostic(spec, model, short, omegas):
        assert row["diff"] > 3.0 * row["se_diff"]


def test_default_horizon_formula(brownian_tandem):
    spec, model = brownian_tandem
    # 50 * max(phat)^2 * tail coeff / min rate^2 = 50 * 1 * 0.5 / 1
    assert default_horizon(spec, model, 1.0) == pytest.approx(25.0)
    # alpha = 1.5: relaxation time (0.5 * (1 / 1)^1.5)^2 = 0.25, times 1e-4^-2
    assert default_horizon(spec, StableSum(((1.5, 0.5),)), 1.0) == pytest.approx(0.25e8)


def test_large_omega_estimates_atom_at_zero():
    # as omega grows the estimator decreases toward the empirical mass at zero
    lam, mu, r = 0.5, 1.0, 1.0
    spec = tandem_spec([RateFunction.monomial(r, 0.0)])
    model = CompoundPoisson(lam, ExponentialJob(mu))
    q = simulate_workload(spec, model, SimConfig(u=1.0, n_rep=20_000, seed=29))
    ests = empirical_lst(q, [np.array([w]) for w in (1.0, 10.0, 1e6)])
    means = [e.mean for e in ests]
    assert means[0] >= means[1] >= means[2]
    atom = float((q[:, 0] == 0.0).mean())
    assert means[2] == pytest.approx(atom, abs=1e-4)
    # idle probability of the busy-cycle representation: 1 - lam E B / speed
    assert atom == pytest.approx(1.0 - lam / mu / (r + lam / mu), abs=0.02)


def test_single_node_convergence_any_model():
    # scaled single-queue transform approaches the Mittag-Leffler limit
    spec = tandem_spec([RateFunction.monomial(1.0, -1.0)])
    model = CompoundPoisson(1.0, ExponentialJob(1.0))
    part = partition_rates(spec)
    rows = convergence_study(spec, part, model, "heavy", [np.array([0.9])], [10.0, 100.0, 1000.0])
    gaps = [r["gap"] for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_convergence_study_rows(brownian_tandem):
    spec = tandem_spec([RateFunction.monomial(2.0, -1.0), RateFunction.monomial(1.0, -2.0)])
    model = Brownian(1.0)
    part = partition_rates(spec)
    omegas = [np.array([0.7, 1.3])]
    rows = convergence_study(spec, part, model, "heavy", omegas, [10.0, 100.0])
    assert len(rows) == 2
    assert rows[0]["gap"] > rows[1]["gap"]
    single = convergence_study(spec, part, model, "heavy", omegas, [50.0])
    assert len(single) == 1


def test_convergence_study_with_empirical():
    spec = tandem_spec([RateFunction.monomial(2.0, 0.0), RateFunction.monomial(1.0, 0.0)])
    model = Brownian(1.0)
    part = partition_rates(spec)
    rows = convergence_study(
        spec,
        part,
        model,
        "heavy",
        [np.array([0.4, 0.8])],
        [1.0],
        sim=SimConfig(u=1.0, n_rep=5000, seed=23),
    )
    row = rows[0]
    assert abs(row["empirical"] - row["exact_scaled"]) < 5.0 * row["se"]


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(u=-1.0)
    with pytest.raises(ValueError):
        SimConfig(u=1.0, n_rep=0)
    for horizon in (0.0, math.inf):
        with pytest.raises(ValueError):
            SimConfig(u=1.0, horizon=horizon)
