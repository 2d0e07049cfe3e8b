import math
import re
import warnings

import numpy as np
import pytest
from scipy import stats

from levynet import (
    Brownian,
    CenteredGamma,
    CompoundPoisson,
    ConfigError,
    ExponentialJob,
    RateFunction,
    RoutingMatrix,
    ScalingRangeError,
    SimConfig,
    StableSum,
    StructuralError,
    build_network,
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
    # the cap is outside input: an int >= 1, or a usage error naming it; empty means no cap
    for cap, workers in (("", 3), ("2", 2), (" 7 ", 3)):
        monkeypatch.setenv("LEVYNET_THREADS", cap)
        assert simulate._worker_count(multi) == workers
    for cap in ("abc", "0", "-2", "2.5", "1e3", "²"):
        monkeypatch.setenv("LEVYNET_THREADS", cap)
        with pytest.raises(ConfigError, match=f"^LEVYNET_THREADS must be an integer >= 1, got {re.escape(repr(cap))}$"):
            simulate_workload(spec, Brownian(1.0), multi)


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


@pytest.mark.parametrize("alpha", [1.01, 1.001])
def test_default_horizon_past_the_float_range_is_value_error(brownian_tandem, alpha):
    # 1e-4**-(1 / (alpha - 1)) overflows a float, and with rates of 1e-5 the
    # relaxation time (0.5 * 1e5**alpha)**(1 / (alpha - 1)) does too
    slow = tandem_spec([RateFunction.monomial(2e-5, 0.0), RateFunction.monomial(1e-5, 0.0)])
    for spec in (brownian_tandem[0], slow):
        with pytest.raises(ValueError, match=f"default horizon overflows at alpha = {alpha}"):
            default_horizon(spec, StableSum(((alpha, 0.5),)), 1.0)


def test_default_horizon_reads_the_rates_by_the_one_range_rule(figure1_spec):
    # at u = 1e160 a rate of figure 1 overflows: the horizon refuses u as the
    # sampler does, with no numpy warning and no subnormal horizon
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScalingRangeError, match=r"^service rates leave the float range at u = 1e\+160: "):
            default_horizon(figure1_spec, Brownian(1.0), 1e160)


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
    for u in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^u must be positive and finite"):
            SimConfig(u=u)
    with pytest.raises(ValueError):
        SimConfig(u=1.0, n_rep=0)
    for horizon in (0.0, math.inf):
        with pytest.raises(ValueError):
            SimConfig(u=1.0, horizon=horizon)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        SimConfig(u=1.0, seed=-1)
    assert SimConfig(u=1.0, seed=0).seed == 0
    # the run schema's rules: counts and seeds are ints (a bool is none), a
    # worker count is >= 1
    for field, value in (("n_rep", 2.5), ("n_rep", True), ("seed", 1.5), ("seed", True), ("n_workers", 2.5)):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got"):
            SimConfig(u=1.0, **{field: value})
    for n_workers in (0, -3):
        with pytest.raises(ValueError, match=f"^n_workers must be >= 1, got {n_workers}$"):
            SimConfig(u=1.0, n_workers=n_workers)


def test_sim_config_needs_two_replications():
    # the run schema's minimum: the estimates and the horizon check need a
    # standard error, which one replication does not give
    with pytest.raises(ValueError, match="^n_rep must be >= 2, got 1$"):
        SimConfig(u=1.0, n_rep=1)
    assert SimConfig(u=1.0, n_rep=2).n_rep == 2


def test_sampler_estimates_check_each_frequency_as_the_transforms_do(brownian_tandem):
    # a negative or nan frequency is refused, as joint_lst_exact refuses it,
    # not turned into a mean above 1 or a nan
    spec, model = brownian_tandem
    cfg = SimConfig(u=1.0, n_rep=2000, seed=4, n_workers=1)
    samples = simulate_workload(spec, model, cfg)
    for omega, message in (([-1.0, 0.0], "nonnegative"), ([math.nan, 0.0], "non-finite"), ([0.5], "length 2")):
        for estimate in (
            lambda: empirical_lst(samples, [omega]),
            lambda: horizon_diagnostic(spec, model, cfg, [omega]),
            lambda: joint_lst_exact(spec, model, omega, cfg.u),
        ):
            with pytest.raises(ValueError, match=message):
                estimate()


def test_convergence_study_names_a_scaled_frequency_that_overflows():
    # alpha = 1.02, beta = 50: r(u)**beta passes the float range at u = 1e10
    # for both nodes; node 1's frequency is 0 and stays 0
    spec = tandem_spec([RateFunction.monomial(2.0, 1.0), RateFunction.monomial(1.0, 1.0)])
    part = partition_rates(spec)
    model = StableSum(((1.02, 0.5),))
    rows = convergence_study(spec, part, model, "light", [[0.0, 1.2]], [1.0])
    assert 0.0 < rows[0]["exact_scaled"] <= 1.0
    with pytest.raises(ScalingRangeError, match=r"node 2 overflows at u = 1e\+10: omega_2 = 1.2"):
        convergence_study(spec, part, model, "light", [[0.0, 1.2]], [1e10])


def test_sampler_refuses_a_node_faster_than_its_inflow():
    # node 2 drains at rate 2 but receives at most 1: every sampled Q_2 would be negative
    spec = tandem_spec([RateFunction.monomial(1.0, 0.0), RateFunction.monomial(2.0, 0.0)])
    cfg = SimConfig(u=1.0, n_rep=64, n_workers=1)
    message = "^node 2 is faster than its inflow from node 1 at u = 1: r_2 = 2 > p_1,2 r_1 = 1"
    with pytest.raises(StructuralError, match=message):
        simulate_workload(spec, Brownian(1.0), cfg)
    with pytest.raises(StructuralError, match=message):
        horizon_diagnostic(spec, Brownian(1.0), cfg, [np.array([0.0, 1.0])])
    # the comparison is r_2 against p_12 r_1, exact in floats: one ulp above the inflow is refused
    routing = RoutingMatrix.from_edges(3, [(1, 2, 1 / 3), (1, 3, 1 / 3)])
    for r3, refused in ((1 / 3, False), (math.nextafter(1 / 3, 1.0), True)):
        rates = [RateFunction.monomial(c, 0.0) for c in (1.0, 0.2, r3)]
        spec = build_network(routing, rates)
        if refused:
            with pytest.raises(StructuralError, match="^node 3 is faster than its inflow from node 1"):
                simulate_workload(spec, Brownian(1.0), cfg)
        else:
            assert simulate_workload(spec, Brownian(1.0), cfg).shape == (64, 3)


def test_node_as_fast_as_its_inflow_holds_no_work():
    spec = tandem_spec([RateFunction.monomial(1.0, 0.0), RateFunction.monomial(1.0, 0.0)])
    for model in (Brownian(1.0), StableSum(((1.5, 0.5),))):
        q = simulate_workload(spec, model, SimConfig(u=1.0, n_rep=2_000, seed=3, n_workers=1))
        assert np.all(q[:, 1] == 0.0) and q[:, 0].max() > 0.0, model


def test_sampler_refuses_scales_outside_the_float_range(figure1_spec):
    # at u = 1e100 every figure-1 rate is finite (the largest 1e201), but the
    # face floor underflows to 0 and stick-breaking would never reach it
    cases = [
        (figure1_spec, 1e100, "sampler face floor 0 is not a positive float at u = 1e+100"),
        (figure1_spec, 1e200, "service rates leave the float range at u = 1e+200"),
        # one node with rate u: the default horizon 50 * 0.5 / u**2 underflows to 0
        (tandem_spec([RateFunction.monomial(1.0, 1.0)]), 1e170, "sampler horizon 0 is not a positive float"),
    ]
    for spec, u, message in cases:
        cfg = SimConfig(u=u, n_rep=16, n_workers=1)
        with pytest.raises(ScalingRangeError, match="^" + re.escape(message)):
            simulate_workload(spec, Brownian(1.0), cfg)
        with pytest.raises(ScalingRangeError, match="^" + re.escape(message)):
            horizon_diagnostic(spec, Brownian(1.0), cfg, [np.zeros(spec.n)])
