import importlib.util
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levynet import (
    Brownian,
    CenteredGamma,
    CompoundPoisson,
    DeterministicJob,
    ErlangJob,
    ExponentialJob,
    StableSum,
    RateFunction,
    StructuralError,
    TailPair,
    joint_lst_exact,
    exact,
    joint_lst_limit,
    kappa,
    limit,
    models,
    partition,
    partition_rates,
)
from levynet.errors import ScalingRangeError
from levynet.models import HEAVY
from levynet.exact import _psi_inverse
from levynet.network import ClassLayout, ClassRates, NetworkSpec, build_network
from levynet.roots import invert_increasing

from conftest import delta, delta_hat, psi, random_model, random_spec, random_tail, tandem_spec
from oracles import kappa_max_ancestor


def brownian_single(rate=1.0, sigma2=1.0):
    return tandem_spec([RateFunction.monomial(rate, 0.0)]), Brownian(sigma2)


def test_psi_brownian_value():
    spec, model = brownian_single()
    assert psi(spec, model, 1, 1.0, 1.0) == pytest.approx(1.5, rel=1e-15)


def test_psi_zero():
    spec, model = brownian_single()
    assert psi(spec, model, 1, 0.0, 1.0) == 0.0


def test_psi_gamma_value():
    spec = tandem_spec([RateFunction.monomial(2.0, 0.0)])
    model = CenteredGamma(1.0, 1.0)
    assert psi(spec, model, 1, 1.0, 1.0) == pytest.approx(3.0 - math.log(2.0), rel=1e-14)


def test_psi_negative_rejected():
    spec, model = brownian_single()
    with pytest.raises(ValueError):
        psi(spec, model, 1, -1.0, 1.0)


def closed_form_root(a: float, r: np.ndarray, ph: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The exact transform's root of r s + a ph**2 s**2 = x, elementwise: the
    inner nodes of one class, with a last node appended to end it."""
    k = len(ph) + 1
    layout = ClassLayout(np.append(ph, 1.0), [len(ph)], np.broadcast_to(0.0, (k, k)))  # the root reads no front
    rates = ClassRates(layout, np.append(r, 1.0))
    return exact._quadratic_root(rates, a, x)


def phi_inverse(spec, model, j: int, x: float, u: float) -> float:
    """Phi_j(x), the inverse of psi_j at x, as the exact transform takes it."""
    r, ph = np.array([spec.rates[j - 1](u)]), spec.phat[j - 1 : j]
    if model.quadratic is not None:
        return float(closed_form_root(model.quadratic, r, ph, np.array([x]))[0])
    return float(_psi_inverse(model, r, ph, np.array([x]))[0])


def test_phi_inverse_zero_and_quadratic():
    spec, model = brownian_single(rate=1.0, sigma2=2.0)  # psi(s) = s + s^2
    assert phi_inverse(spec, model, 1, 0.0, 1.0) == 0.0
    assert phi_inverse(spec, model, 1, 2.0, 1.0) == pytest.approx(1.0, rel=1e-12)


def _quadratic_groups(size=2000):
    """(a, r, phat, x) arrays for the closed-form root: for each of ten
    quadratic coefficients a in [1e-3, 1e3], seeded log-uniform r in
    [1e-10, 1e10], phat in [1e-6, 1] and x in [1e-12, 1e12], every 20th x
    set to 0, and the corners of the box."""
    rng = np.random.default_rng(2024)
    corners = np.array(np.meshgrid([1e-10, 1e10], [1e-6, 1.0], [1e-12, 1e12])).reshape(3, -1)
    for a in [1e-3, 1e3, *(10.0 ** rng.uniform(-3, 3, 8)).tolist()]:
        r, ph, x = (10.0 ** rng.uniform(lo, hi, size // 10) for lo, hi in ((-10, 10), (-6, 0), (-12, 12)))
        r, ph, x = (np.concatenate([c, v]) for c, v in zip(corners, (r, ph, x)))
        x[::20] = 0.0
        yield a, r, ph, x


def test_quadratic_psi_inverse_matches_high_precision():
    mp = pytest.importorskip("mpmath")
    for a, r, ph, x in _quadratic_groups():
        got = closed_form_root(a, r, ph, x)
        assert np.all(got[x == 0.0] == 0.0)
        with mp.workdps(50):
            for rj, pj, xj, sj in zip(r.tolist(), ph.tolist(), x.tolist(), got.tolist()):
                rj, q, xj = mp.mpf(rj), mp.mpf(a) * mp.mpf(pj) ** 2, mp.mpf(xj)
                ref = 2 * xj / (rj + mp.sqrt(rj**2 + 4 * q * xj))
                assert abs(sj - ref) <= 1e-14 * ref, (a, rj, pj, xj)


def test_quadratic_psi_inverse_matches_newton():
    # the solver stops at residual 1e-12 x, and a root of a convex psi with
    # psi(0) = 0 is then good to 1e-12 relative
    for a, r, ph, x in _quadratic_groups():
        got = closed_form_root(a, r, ph, x)
        for rj, pj, xj, sj in zip(r.tolist(), ph.tolist(), x.tolist(), got.tolist()):
            q = a * pj * pj
            ref = invert_increasing(lambda s: rj * s + q * s * s, xj, lambda s: rj + 2 * q * s, xj / rj)
            assert abs(sj - ref) <= 1e-12 * ref, (a, rj, pj, xj)


def test_quadratic_factors_match_the_slope_ratios_at_high_precision():
    # each closed-form factor against the slope ratio of its definition at 50
    # digits, slope(s) = r + ph a (ph Phi + s) with the root Phi of r Phi + a
    # ph**2 Phi**2 = kappa: inner nodes slope(s_{j+1}) / slope(s_j), class
    # ends r / slope(w); from the same kappa and front sums, on one class and
    # on rate classes, with every rate scaled by up to 1e160 either way.  The
    # frequencies are of the order of the rates, up to 1e80: kappa grows like
    # r * omega, and omega ~ r = 1e160 would take it past the float range
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(461)
    for n in (2, 5, 13, 30):
        spec = random_spec(rng, n)
        part = partition_rates(spec)
        a = float(10.0 ** rng.uniform(-2, 2))
        for layout, base in ((spec.layout, spec.rate_vector(2.0)), (part.layout, part.fractions)):
            for scale in (1e-160, 1e-40, 1.0, 1e40, 1e160):
                r = base * scale
                rates = ClassRates(layout, r)
                w = base * min(scale, 1e80) * rng.uniform(0.05, 2.5, n) * 10.0 ** rng.uniform(-3, 3, n)
                w[rng.random(n) < 0.2] = 0.0
                got, y, _ = exact._class_factors(Brownian(2.0 * a), rates, w, w.max())
                sums, kap = y[:n], y[n:][layout.inner]
                roots = exact._quadratic_root(rates, a, kap)
                with mp.workdps(50):
                    ma, want = mp.mpf(a), {}  # node -> factor
                    for i, j in enumerate(layout.inner.tolist()):
                        rj, pj, kj = mp.mpf(r[j]), mp.mpf(spec.phat[j]), mp.mpf(kap[i])
                        root = 2 * kj / (rj + mp.sqrt(rj**2 + 4 * ma * pj**2 * kj))
                        assert abs(roots[i] - root) <= 1e-14 * root, (n, scale)
                        slope = lambda s: rj + pj * ma * (pj * root + mp.mpf(s))  # noqa: E731
                        want[j] = slope(sums[j + 1]) / slope(sums[j])
                    for j in layout.ends.tolist():
                        rj, pj = mp.mpf(r[j]), mp.mpf(spec.phat[j])
                        want[j] = rj / (rj + pj * ma * pj * mp.mpf(w[j]))
                    for g, h in zip(got.tolist(), (want[j] for j in range(n))):
                        assert abs(g - h) <= 1e-14 * h, (n, scale)


BENCHMARK_TREES = [
    (50, 1, "random_tree"),
    (80, 3, "random_tree"),
    (100, 3, "random_tree"),
    (50, 0, "singleton_class_tree"),
]


def _defining_sums(layout, r, w):
    """Every front sum, then every kappa, in node order, as exact rationals of
    their definitions from the floats phat, r and w: s_j the sum of phat_l w_l
    over the within-class front of j, and the kappa of node j the sum over
    the later nodes l of its class of (r_{l-1}/phat_{l-1} - r_l/phat_l) s_l,
    0 at a class end."""
    ph, r, w = ([Fraction(v) for v in a.tolist()] for a in (layout.phat, r, w))
    sums = [sum((ph[l] * w[l] for l in np.flatnonzero(row).tolist()), Fraction(0)) for row in layout.front]
    kap, ends = [Fraction(0)] * len(ph), set(layout.ends.tolist())
    for j in reversed(range(len(ph) - 1)):  # a suffix sum within each class
        if j not in ends:
            kap[j] = (r[j] / ph[j] - r[j + 1] / ph[j + 1]) * sums[j + 1] + kap[j + 1]
    return sums + kap


@pytest.mark.parametrize("tree", BENCHMARK_TREES, ids=str)
def test_the_fused_product_matches_the_defining_sums(tree):
    # one matrix-vector product gives every front sum and every kappa: on the
    # benchmark trees, whose rates span 20 decades at u = 2, against exact
    # rational sums, on one class and on the rate classes, for a vector and
    # for each row of a grid
    spec = _benchmark_tree(*tree)
    rng = np.random.default_rng(607)
    grid = rng.uniform(0.05, 2.5, (3, spec.n)) * 10.0 ** rng.uniform(-3, 3, (3, spec.n))
    grid[1, rng.random(spec.n) < 0.3] = 0.0
    worst = 0.0
    for rates in (spec.class_rates(2.0), partition_rates(spec).class_rates):
        rows = exact._sums(rates, grid, grid.max(), rates.max_frequency).T
        assert np.array_equal(exact._sums(rates, grid[0], grid[0].max(), rates.max_frequency), rows[0])
        for w, got in zip(grid, rows):
            for g, want in zip(got.tolist(), _defining_sums(rates.layout, rates.r, w)):
                assert (g == 0.0) == (want == 0)
                if want:
                    worst = max(worst, abs(Fraction(g) / want - 1))
    assert worst <= 1e-15, float(worst)


@pytest.mark.parametrize("tree", BENCHMARK_TREES, ids=str)
def test_closed_form_roots_meet_the_newton_stopping_rule(tree):
    # T50, T80, T100 and S50 at the benchmark's u = 2, Brownian input
    spec = _benchmark_tree(*tree)
    rng = np.random.default_rng(17)
    model = Brownian(1.0)
    r, ph = spec.rate_vector(2.0)[:-1], spec.phat[:-1]
    for scale in (1.0, 1e-3, 1e-6, 1e3):
        w = rng.uniform(0.05, 2.5, spec.n) * (rng.random(spec.n) < 0.7) * scale
        ev = joint_lst_exact(spec, model, w, 2.0)
        roots, kap = ev.phi_at_kappa, ev.kappa
        residual = np.abs(r * roots + model.laplace_exponent(ph * roots) - kap)
        assert np.all(residual <= 1e-12 * np.maximum(1.0, kap))
        assert ev.max_root_residual <= 1e-12 * max(1.0, kap.max())


@settings(max_examples=60)
@given(st.floats(min_value=1e-8, max_value=100.0), st.integers(min_value=0, max_value=2**32 - 1))
def test_phi_inverse_round_trip(x, seed):
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, int(rng.integers(1, 8)))
    model = random_model(rng)
    u = rng.uniform(1.0, 5.0)
    j = int(rng.integers(1, spec.n + 1))
    s = phi_inverse(spec, model, j, x, u)
    assert psi(spec, model, j, s, u) == pytest.approx(x, rel=1e-11)


def test_kappa_zero_and_tandem_value():
    spec = tandem_spec([RateFunction.monomial(2.0, 0.0), RateFunction.monomial(1.0, 0.0)])
    assert kappa(spec, [0.0, 0.0], 1, 1.0) == 0.0
    assert kappa(spec, [0.0, 1.0], 1, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert kappa_max_ancestor(spec, [0.0, 1.0], 1, 1.0) == pytest.approx(1.0, rel=1e-15)


def test_kappa_index_validation():
    spec = tandem_spec([RateFunction.monomial(2.0, 0.0), RateFunction.monomial(1.0, 0.0)])
    with pytest.raises(IndexError):
        kappa(spec, [0.0, 0.0], 2, 1.0)


def test_kappa_forms_agree_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(200):
        spec = random_spec(rng, int(rng.integers(2, 11)))
        u = rng.uniform(1.0, 6.0)
        w = rng.uniform(0.0, 3.0, spec.n)
        for j in range(1, spec.n):
            a = kappa(spec, w, j, u)
            b = kappa_max_ancestor(spec, w, j, u)
            assert a >= -1e-15 and b >= -1e-15
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1e-300)


def test_joint_lst_at_zero_is_one():
    rng = np.random.default_rng(37)
    for _ in range(10):
        spec = random_spec(rng, int(rng.integers(1, 8)))
        model = random_model(rng)
        assert joint_lst_exact(spec, model, np.zeros(spec.n), 2.0).value == 1.0


def test_single_node_brownian_closed_form():
    spec, model = brownian_single(rate=2.0, sigma2=1.5)
    for w in np.linspace(0.0, 8.0, 30):
        got = joint_lst_exact(spec, model, [w], 1.0).value
        assert got == pytest.approx(1.0 / (1.0 + 1.5 * w / 4.0), rel=1e-12)


def test_single_node_is_rate_times_omega_over_psi():
    rng = np.random.default_rng(41)
    for _ in range(20):
        spec = random_spec(rng, 1)
        model = random_model(rng)
        u = rng.uniform(1.0, 4.0)
        w = rng.uniform(1e-3, 10.0)
        expected = spec.rates[0](u) * w / psi(spec, model, 1, w, u)
        assert joint_lst_exact(spec, model, [w], u).value == pytest.approx(expected, rel=1e-13)


def test_root_marginal_is_single_queue_transform():
    # setting all frequencies but the root's to zero reduces to the root queue
    rng = np.random.default_rng(43)
    for _ in range(20):
        spec = random_spec(rng, int(rng.integers(2, 9)))
        model = random_model(rng)
        u = rng.uniform(1.0, 4.0)
        w1 = rng.uniform(0.05, 4.0)
        w = np.zeros(spec.n)
        w[0] = w1
        got = joint_lst_exact(spec, model, w, u).value
        expected = spec.rates[0](u) * w1 / psi(spec, model, 1, w1, u)
        assert got == pytest.approx(expected, rel=1e-11)


def test_componentwise_monotone_in_omega():
    rng = np.random.default_rng(47)
    for _ in range(40):
        spec = random_spec(rng, int(rng.integers(2, 8)))
        model = random_model(rng)
        u = rng.uniform(1.0, 4.0)
        lo = rng.uniform(0.0, 2.0, spec.n)
        hi = lo + rng.uniform(0.0, 2.0, spec.n)
        v_lo = joint_lst_exact(spec, model, lo, u).value
        v_hi = joint_lst_exact(spec, model, hi, u).value
        assert v_hi <= v_lo + 1e-12
        assert 0.0 < v_hi <= 1.0 and 0.0 < v_lo <= 1.0


def test_zero_entries_match_jitter_limit():
    # jitter values approach the extension value; the rate can be as slow as
    # eps**(alpha - 1), so only decrease and closeness are asserted
    rng = np.random.default_rng(53)
    for _ in range(15):
        spec = random_spec(rng, int(rng.integers(2, 8)))
        model = random_model(rng)
        u = rng.uniform(1.0, 4.0)
        w = rng.uniform(0.2, 2.0, spec.n) * rng.integers(0, 2, spec.n)
        if np.all(w > 0.0):
            w[int(rng.integers(0, spec.n))] = 0.0
        base = joint_lst_exact(spec, model, w, u).value
        errs = []
        for eps in (1e-4, 1e-6, 1e-8):
            v = joint_lst_exact(spec, model, np.where(w == 0.0, eps, w), u).value
            errs.append(abs(v - base))
        assert errs[0] > errs[1] > errs[2] or errs[2] < 1e-12
        assert errs[2] <= 2e-2 * base


def test_breakdown_reassembles_value():
    rng = np.random.default_rng(59)
    for _ in range(25):
        spec = random_spec(rng, int(rng.integers(2, 8)))
        model = random_model(rng)
        u = rng.uniform(1.0, 4.0)
        w = rng.uniform(0.1, 3.0, spec.n)
        ev = joint_lst_exact(spec, model, w, u)
        ratios = ((ev.phi_at_kappa - ev.delta) / (ev.phi_at_kappa - ev.delta_hat)) * (
            (ev.kappa - ev.psi_delta_hat) / (ev.kappa - ev.psi_delta)
        )
        assert ev.value == pytest.approx(ev.prefactor * np.prod(ratios), rel=1e-9)
        assert ev.value == math.prod([ev.prefactor, *ev.factor_values.tolist()])
        assert ev.max_root_residual <= 1e-12 * max(1.0, ev.kappa.max())


def test_delta_sums(figure1_spec):
    w = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    ph = figure1_spec.phat
    assert delta(figure1_spec, w, 2) == pytest.approx((ph[1] * 0.2 + ph[4] * 0.5) / ph[1])
    assert delta_hat(figure1_spec, w, 2) == pytest.approx(
        (ph[2] * 0.3 + ph[3] * 0.4 + ph[4] * 0.5 + ph[5] * 0.6) / ph[1]
    )


def test_omega_validation():
    spec = tandem_spec([RateFunction.monomial(2.0, 0.0), RateFunction.monomial(1.0, 0.0)])
    model = Brownian(1.0)
    with pytest.raises(ValueError):
        joint_lst_exact(spec, model, [1.0], 1.0)
    with pytest.raises(ValueError):
        joint_lst_exact(spec, model, [1.0, -0.5], 1.0)
    with pytest.raises(ValueError):
        joint_lst_exact(spec, model, [1.0, np.inf], 1.0)
    with pytest.raises(ValueError):
        joint_lst_exact(spec, model, [1.0, 1.0], -2.0)


def test_breakdown_matches_scalar_kappa_and_deltas_on_deep_trees():
    # the factors take kappa, delta and delta_hat from one matrix product and a
    # reverse cumulative sum; the scalar forms sum over the front sets instead
    rng = np.random.default_rng(107)
    for _ in range(10):
        spec = random_spec(rng, int(rng.integers(2, 101)))
        u = rng.uniform(1.0, 4.0)  # rate/phat falls by 0.4-0.9 per node: tens of decades at n = 100
        w = rng.uniform(0.05, 3.0, spec.n) * (rng.random(spec.n) < 0.3)
        ev = joint_lst_exact(spec, Brownian(rng.uniform(0.5, 2.0)), w, u)
        for name in ("kappa", "delta", "delta_hat", "phi_at_kappa", "factor_values"):
            assert getattr(ev, name).shape == (spec.n - 1,)
        for j in range(1, spec.n):
            for got, want in (
                (ev.kappa[j - 1], kappa_max_ancestor(spec, w, j, u)),
                (ev.delta[j - 1], delta(spec, w, j)),
                (ev.delta_hat[j - 1], delta_hat(spec, w, j)),
            ):
                assert abs(got - want) <= 1e-12 * max(abs(want), 1e-300)


def _benchmark_tree(n: int, seed: int, build: str = "random_tree"):
    """The tree perfbench/trees.py builds for (n, seed) with its function `build`."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "trees.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_trees", path)
    trees = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(trees)
    return getattr(trees, build)(np.random.default_rng([n, seed]), n)


def test_deep_node_marginal_without_spurious_singular_factor():
    # node 80 of the benchmark tree T80 has phat 7.2e-6 and rate 7e-22 at u = 2:
    # psi' is near 1e-9 along its path, so regular factors have exponent gaps
    # near 1e-9 against frequency gaps of order one
    spec = _benchmark_tree(80, 3)
    node = int(np.argmin(spec.phat))
    assert node == 79 and spec.phat[node] == pytest.approx(7.16e-6, rel=1e-3)
    values = []
    for x in np.linspace(5.0, 25.0, 401):
        w = np.zeros(spec.n)
        w[node] = x
        values.append(joint_lst_exact(spec, Brownian(1.0), w, 2.0).value)
    values = np.array(values)
    assert np.all((values > 0.0) & (values <= 1.0))
    assert np.all(np.diff(values) <= 0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=100), st.integers(min_value=0, max_value=2**32 - 1))
def test_deep_trees_have_no_spurious_singular_factor(n, seed):
    # rates fall by 0.4-0.9 per node (and phat with them), so deep trees span
    # up to tens of decades; for Brownian input every factor is finite
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, n)
    sigma2 = rng.uniform(0.5, 2.0)
    model = Brownian(sigma2)
    u = rng.uniform(1.0, 4.0)
    x = rng.uniform(0.05, 10.0)
    w = np.zeros(n)
    w[0] = x
    root = joint_lst_exact(spec, model, w, u).value
    assert root == pytest.approx(1.0 / (1.0 + sigma2 * x / (2.0 * spec.rates[0](u))), rel=1e-12)
    for _ in range(3):
        w = np.zeros(n)
        picks = rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False)
        w[picks] = rng.uniform(0.05, 20.0, len(picks))
        ev = joint_lst_exact(spec, model, w, u)
        assert 0.0 < ev.value <= 1.0
        assert np.all(np.isfinite(ev.factor_values) & (ev.factor_values > 0.0))


def test_one_evaluation_makes_n_rate_calls_and_no_starred_sets(monkeypatch):
    rng = np.random.default_rng(113)
    spec = random_spec(rng, 50)
    part = partition_rates(spec)
    w = rng.uniform(0.05, 2.0, spec.n)
    calls = {"rate": 0, "starred": 0}

    rate_call = RateFunction.__call__

    def counted_rate(self, u):
        calls["rate"] += 1
        return rate_call(self, u)

    starred_sets = partition.starred_sets

    def counted_starred(*args):
        calls["starred"] += 1
        return starred_sets(*args)

    monkeypatch.setattr(RateFunction, "__call__", counted_rate)
    monkeypatch.setattr(partition, "starred_sets", counted_starred)
    monkeypatch.setattr(limit, "starred_sets", counted_starred)
    joint_lst_exact(spec, Brownian(1.0), w, 2.0)
    assert calls["rate"] == 0  # rate_vector reads the packed monomials
    joint_lst_limit(spec, part, random_tail(rng), w)
    assert calls["starred"] == 0


def test_rate_arrays_are_built_once_per_u_and_the_limit_builds_none(monkeypatch):
    # the exact transform reads what depends on the rates from a one-entry
    # memo of the last u; the limit reads its partition's, built with it, and
    # the fraction powers, kept per beta
    rng = np.random.default_rng(137)
    spec = random_spec(rng, 30)
    part = partition_rates(spec)
    tail = TailPair(1.5, 0.7)
    ws = rng.uniform(0.05, 2.0, (25, spec.n))
    calls = {"rate_vector": 0, "ClassRates": 0, "ClassLayout": 0}
    for cls, name in ((NetworkSpec, "rate_vector"), (ClassRates, "__post_init__"), (ClassLayout, "__post_init__")):
        original = getattr(cls, name)

        def counted(*args, key=cls.__name__ if name == "__post_init__" else name, fn=original):
            calls[key] += 1
            return fn(*args)

        monkeypatch.setattr(cls, name, counted)

    def count(evaluate):
        calls.update(dict.fromkeys(calls, 0))
        evaluate()
        return calls["rate_vector"], calls["ClassRates"], calls["ClassLayout"]

    assert count(lambda: [joint_lst_exact(spec, Brownian(1.0), w, 2.0) for w in ws]) == (1, 1, 0)
    assert count(lambda: [joint_lst_exact(spec, Brownian(1.0), ws[0], u) for u in (1.0, 2.0, 1.0)]) == (3, 3, 0)
    assert count(lambda: kappa(spec, ws[0], 1, 1.0)) == (0, 0, 0)
    power = part.fraction_power(tail.beta)
    assert count(lambda: [joint_lst_limit(spec, part, tail, w) for w in ws]) == (0, 0, 0)
    assert part.fraction_power(tail.beta) is power and not power.flags.writeable
    # the matrix G of the front sums and kappa and its range bound: once per
    # ClassRates; the closed form's coefficients: once per ClassRates and
    # quadratic coefficient a
    rates, limit_rates = spec.class_rates(2.0), part.class_rates
    matrices = rates.sum_matrix, limit_rates.sum_matrix
    bounds = rates.max_frequency, limit_rates.max_frequency
    terms = rates.quadratic_terms(0.65)
    assert count(lambda: [joint_lst_exact(spec, Brownian(1.3), w, 2.0) for w in ws]) == (0, 0, 0)
    assert count(lambda: joint_lst_limit(spec, part, tail, ws)) == (0, 0, 0)
    assert rates.sum_matrix is matrices[0] and limit_rates.sum_matrix is matrices[1]
    assert (rates.max_frequency, limit_rates.max_frequency) == bounds
    assert matrices[0].shape == (2 * spec.n, spec.n) and not any(g.flags.writeable for g in matrices)
    assert rates.quadratic_terms(0.65) is terms and not any(t.flags.writeable for t in terms[:2])
    assert rates.quadratic_terms(0.5) is not terms


def test_interleaved_u_give_the_bits_of_a_fresh_network():
    # the memo is keyed by u alone and takes no part in eq, hash or repr
    rng = np.random.default_rng(139)
    names = ("kappa", "phi_at_kappa", "factor_values", "front_sums", "delta", "delta_hat", "psi_delta", "psi_delta_hat")
    for model in (Brownian(1.3), CenteredGamma(2.0, 1.5), StableSum(((1.5, 0.5), (2.0, 0.3)))):
        spec = random_spec(rng, int(rng.integers(2, 40)))
        before = (spec, hash(spec), repr(spec))
        for u in (1.0, 2.0, 7.5, 1.0, 2.0):
            w = rng.uniform(0.05, 2.5, spec.n) * (rng.random(spec.n) < 0.7)
            got = joint_lst_exact(spec, model, w, u)
            want = joint_lst_exact(build_network(spec.routing, spec.rates), model, w, u)
            assert (got.value, got.prefactor, got.max_root_residual) == (want.value, want.prefactor, want.max_root_residual)
            for name in names:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert kappa(spec, w, 1, u) == float(want.kappa[0])
        assert (spec, hash(spec), repr(spec)) == before


def test_rates_outside_the_float_range_are_refused():
    # figure 1's rates grow like u**2: at u = 1e160 the fastest is inf, and the
    # exact transform refuses it by the sampler's rule, with no RuntimeWarning
    spec = tandem_spec([RateFunction.monomial(2.0, 2.0), RateFunction.monomial(1.0, 1.0)])
    message = "^service rates leave the float range at u = 1e\\+160: 1e\\+160 to inf$"
    for evaluate in (
        lambda: joint_lst_exact(spec, Brownian(1.0), [0.5, 0.5], 1e160),
        lambda: kappa(spec, [0.5, 0.5], 1, 1e160),
        lambda: spec.class_rates(1e160),
    ):
        with pytest.raises(ScalingRangeError, match=message):
            evaluate()
    tiny = tandem_spec([RateFunction.monomial(2.0, -2.0), RateFunction.monomial(1.0, -2.0)])
    with pytest.raises(ScalingRangeError, match="^service rates leave the float range at u = 1e\\+200: 0 to 0$"):
        joint_lst_exact(tiny, Brownian(1.0), [0.5, 0.5], 1e200)
    assert 0.0 < joint_lst_exact(spec, Brownian(1.0), [0.5, 0.5], 1e60).value <= 1.0


def test_front_sums_and_kappa_outside_the_float_range_are_refused(figure1_spec):
    # figure 1 at u = 1e100: every rate is a float, but at omega = 1e10 r(u)
    # kappa_2 = (r_1 - r_2/phat_2) s_2 + ... passes 1e400; the transforms
    # refuse it naming the node, with no RuntimeWarning, where a nan factor
    # used to be refused as a transform value outside (0, 1]
    spec, u = figure1_spec, 1e100
    w = 1e10 * spec.rate_vector(u)
    message = "^kappa_2 of node 1 leaves the float range: frequencies up to 1e\\+211, rates 1e\\+100 to 1e\\+201$"
    for evaluate in (
        lambda: joint_lst_exact(spec, Brownian(1.0), w, u),
        lambda: joint_lst_exact(spec, CenteredGamma(2.0, 1.5), w, u),
        lambda: joint_lst_exact(spec, Brownian(1.0), [w * 1e-200, w], u),  # the first bad row raises
        lambda: kappa(spec, w, 1, u),
    ):
        with pytest.raises(ScalingRangeError, match=message):
            evaluate()
    # the closed form also needs D**2 / r**2 = 1 + 4 a phat**2 kappa / r**2 in range:
    # at rates of 1e-200 and frequencies of 1e120 it is 1e320, though kappa is 1e-80
    tandem = tandem_spec([RateFunction.monomial(2.0, 2.0), RateFunction.monomial(1.0, 2.0)])
    lost = "^4 a phat\\*\\*2 kappa_2 / r\\*\\*2 of node 1 leaves the float range: frequencies up to 1e\\+120, "
    with pytest.raises(ScalingRangeError, match=lost):
        joint_lst_exact(tandem, Brownian(1.0), [1e120, 1e120], 1e-100)
    assert 0.0 < joint_lst_exact(tandem, Brownian(1.0), [1e100, 1e100], 1e-100).value < 1e-299
    # where the one comparison refuses a grid whose entries are in range, the
    # checked product gives the same bits
    for rates, grid in (
        (spec.class_rates(u), np.array([w * 1e-200, w * 1e-120])),
        (tandem.class_rates(1e-100), np.full((2, 2), 1e100)),
    ):
        for omega in (grid, grid[1]):
            assert np.array_equal(exact._sums(rates, omega, omega.max(), 0.0), exact._sums(rates, omega, 0.0, 1.0))


def test_a_class_end_numerator_is_its_rate():
    # a class end's kappa, root and delta_hat are 0, so the formula takes its
    # numerator slope as r + ph * S(0, 0): it is r for every family, because
    # S(0, 0) = phi'(0) = 0 for a centered input, and _secant gives that 0
    from values import INPUTS

    zero = np.zeros((2, 3))
    families = [*INPUTS.values(), CompoundPoisson(1.0, ExponentialJob(2.0)), StableSum(((1.01, 0.3), (1.99, 0.2)))]
    for model in families:
        assert not model._secant(zero, zero).any(), model
    # so the prefactor of a one-node network, r / slope(0, w), is the
    # single-queue value r / (r + S(phat w, 0) phat)
    spec = tandem_spec([RateFunction.monomial(1.5, 1.0)])
    for model in families:
        ev = joint_lst_exact(spec, model, [0.8], 2.0)
        assert ev.value == ev.prefactor == 3.0 / (3.0 + float(model.laplace_exponent_secant(0.8, 0.0)))


def test_one_evaluation_makes_one_secant_call_and_no_argument_check(monkeypatch):
    # the layouts are built once, so a transform point takes its secants in
    # at most one family call on arguments it built >= 0, and the limit's
    # stable model comes with its tail pair
    rng = np.random.default_rng(131)
    spec = random_spec(rng, 40)
    part = partition_rates(spec)
    w = rng.uniform(0.05, 2.0, spec.n)
    r = spec.rate_vector(2.0)
    tails = [TailPair(2.0, 0.7), TailPair(1.5, 0.7)]
    gamma = CenteredGamma(2.0, 1.5)
    calls = {"secant": 0, "check_s": 0, "stable": 0}

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    for cls in (Brownian, CenteredGamma, StableSum):
        monkeypatch.setattr(cls, "_secant", counting("secant", cls._secant))
    monkeypatch.setattr(models, "_check_s", counting("check_s", models._check_s))
    monkeypatch.setattr(StableSum, "__post_init__", counting("stable", StableSum.__post_init__))

    def counts(evaluate):
        calls.update(secant=0, check_s=0, stable=0)
        assert 0.0 < evaluate().value <= 1.0
        return calls["secant"], calls["check_s"], calls["stable"]

    # quadratic exponents take their factors in closed form, with no secant
    assert counts(lambda: joint_lst_exact(spec, Brownian(1.0), w * r, 2.0)) == (0, 0, 0)
    assert counts(lambda: joint_lst_limit(spec, part, tails[0], w)) == (0, 0, 0)
    # Newton's exponent calls check their scalar arguments; the secant call does not
    assert counts(lambda: joint_lst_exact(spec, gamma, w * r, 2.0))[::2] == (1, 0)
    assert counts(lambda: joint_lst_limit(spec, part, tails[1], w))[::2] == (1, 0)


def test_lazy_diagnostics_equal_eager_recomputation():
    # psi at the roots, delta and delta_hat come from one exponent call on
    # first read; the same call made by hand gives the same bits
    spec = _benchmark_tree(50, 1)
    model = CenteredGamma(2.0, 1.5)
    w = np.random.default_rng(5).uniform(0.05, 2.5, spec.n)
    ev = joint_lst_exact(spec, model, w, 2.0)
    r, ph = spec.rate_vector(2.0)[:-1], spec.phat[:-1]
    sums = (spec.class_rates(2.0).sum_matrix @ w)[: spec.n]
    s3 = np.concatenate((ev.phi_at_kappa, sums[:-1] / ph, sums[1:] / ph))
    psi3 = np.tile(r, 3) * s3 + model.laplace_exponent(np.tile(ph, 3) * s3)
    root_psi, psi_delta, psi_delta_hat = np.split(psi3, 3)
    assert ev.max_root_residual == float(np.abs(root_psi - ev.kappa).max())
    for got, want in (
        (ev.delta, s3[spec.n - 1 : 2 * spec.n - 2]),
        (ev.delta_hat, s3[2 * spec.n - 2 :]),
        (ev.psi_delta, psi_delta),
        (ev.psi_delta_hat, psi_delta_hat),
    ):
        assert np.array_equal(got, want)


def test_unread_diagnostics_cost_no_exponent_call(monkeypatch):
    # Brownian roots are closed-form and the factors use only the secant, so
    # phi itself is evaluated only when a diagnostic is read
    calls = []
    laplace_exponent = Brownian.laplace_exponent

    def counted(self, s):
        calls.append(s)
        return laplace_exponent(self, s)

    monkeypatch.setattr(Brownian, "laplace_exponent", counted)
    spec = _benchmark_tree(50, 1)
    ev = joint_lst_exact(spec, Brownian(1.0), np.full(spec.n, 0.5), 2.0)
    assert ev.value > 0.0 and calls == []
    assert ev.psi_delta.shape == (spec.n - 1,) and len(calls) == 1
    assert ev.max_root_residual <= 1e-12 * max(1.0, ev.kappa.max()) and len(calls) == 1

GUARD_FAMILIES = [
    StableSum(((1.5, 0.5), (2.0, 0.3))),
    CenteredGamma(2.0, 1.5),
    CompoundPoisson(1.0, DeterministicJob(1.0)),
    CompoundPoisson(1.0, ExponentialJob(1.0)),
    CompoundPoisson(1.0, ErlangJob(3, 2.0)),
    StableSum(((1.5, 0.5),)),
]


def _guard_points():
    """(spec, w, u): the benchmark's T50, T80, T100 and S50 at its u = 2, and
    seeded random trees, each at three frequency scales with zero entries."""
    rng = np.random.default_rng(131)
    cases = [(_benchmark_tree(*tree), 2.0) for tree in BENCHMARK_TREES]
    cases += [(random_spec(rng, int(rng.integers(2, 40))), rng.uniform(1.0, 4.0)) for _ in range(6)]
    for spec, u in cases:
        for scale in (1.0, 1e-3, 1e-6):
            yield spec, rng.uniform(0.05, 2.5, spec.n) * (rng.random(spec.n) < 0.5) * scale, u


@pytest.mark.parametrize("model", GUARD_FAMILIES, ids=repr)
def test_newton_iterates_never_pass_the_root(model, monkeypatch):
    # the root solver runs plain Newton from x / r, which is safe only while
    # every psi_j is convex and increasing and psi_j(x / r) >= x: then within
    # each solve s never increases and f(s) never falls below x
    solves = []
    invert_increasing = exact.invert_increasing

    def recorded(f, x, *args, **kwargs):
        seen = []

        def traced(s):
            fs = f(s)
            seen.append((s, fs))
            return fs

        solves.append((x, seen))
        return invert_increasing(traced, x, *args, **kwargs)

    monkeypatch.setattr(exact, "invert_increasing", recorded)
    for spec, w, u in _guard_points():
        assert 0.0 < joint_lst_exact(spec, model, w, u).value <= 1.0
    assert len(solves) > 1000
    for x, seen in solves:
        s, fs = np.array(seen).reshape(-1, 2).T  # x = 0 returns 0 without evaluating f
        assert np.all(np.diff(s) <= 0.0), x
        assert np.all(fs >= x * (1.0 - 1e-12)), x


@pytest.mark.parametrize("model", [Brownian(1.0), CenteredGamma(2.0, 1.5)], ids=repr)
def test_negative_kappa_is_rejected(figure1_spec, model):
    # the rate ordering of figure 1 fails at u = 1.2, where r/phat rises from
    # node 3 to node 4, and the kappa of node 3's factor is < 0: refused before
    # either inverse, the closed form or Newton's, is taken
    w = [1.0, 0.2, 0.4, 0.8, 0.3, 0.6]
    assert kappa(figure1_spec, w, 3, 1.2) < 0.0
    message = "r/phat rises from node 3 to node 4: rate ordering violated within class"
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        joint_lst_exact(figure1_spec, model, w, 1.2)


@pytest.mark.parametrize("model", [Brownian(1.0), CenteredGamma(2.0, 1.5)], ids=repr)
def test_a_rise_with_nonnegative_kappas_is_refused(model):
    # constant rates (4, 2, 3, 1): r/phat rises from node 2 to node 3, yet at
    # this omega every kappa is >= 0, and the factor formula once returned
    # 0.73323 for Brownian input.  Node 3 never holds work, so the workload is
    # that of the tandem (4, 2, 1), 0.76291; the formula does not know that.
    spec = tandem_spec([RateFunction.monomial(c, 0.0) for c in (4.0, 2.0, 3.0, 1.0)])
    w = [0.3, 0.5, 0.2, 0.9]
    assert min(kappa(spec, w, j, 1.0) for j in (1, 2, 3)) > 0.0
    message = "r/phat rises from node 2 to node 3: rate ordering violated within class"
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        joint_lst_exact(spec, model, w, 1.0)


def test_brownian_input_makes_no_newton_solve(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("quadratic exponents are inverted in closed form")

    monkeypatch.setattr(exact, "invert_increasing", refused)
    for spec, w, u in _guard_points():
        assert 0.0 < joint_lst_exact(spec, Brownian(1.0), w, u).value <= 1.0


# every field and diagnostic of an exact evaluation
GRID_FIELDS = (
    "value", "prefactor", "kappa", "phi_at_kappa", "factor_values",
    "delta", "delta_hat", "psi_delta", "psi_delta_hat", "max_root_residual",
)


def _grid_trees(rng):
    """Seeded random trees from 1 to 21 nodes, and one whose every node is its own rate class."""
    specs = [random_spec(rng, n) for n in (1, 2, 3, 5, 8, 13, 21)]
    tree = random_spec(rng, 5)
    rates = [RateFunction.monomial(3.0 * 0.7**j * tree.phat[j], 2.0 - j) for j in range(5)]
    return specs + [build_network(tree.routing, rates)]


def test_a_grid_call_gives_each_row_the_bits_of_its_own_call():
    from values import INPUTS

    rng = np.random.default_rng(451)
    specs = _grid_trees(rng)
    assert specs[0].n == 1 and partition_rates(specs[-1]).m == specs[-1].n == 5
    for spec in specs:
        part = partition_rates(spec)
        grid = rng.uniform(0.05, 2.5, (5, spec.n)) * (rng.random((5, spec.n)) < 0.7)  # zero entries
        grid[0] = 0.0
        for model in INPUTS.values():
            for u in (1.0, 3.0):
                got = joint_lst_exact(spec, model, grid, u)
                assert got.value.shape == (5,) and got.kappa.shape == got.delta.shape == (5, spec.n - 1)
                for k, w in enumerate(grid):
                    want = joint_lst_exact(spec, model, w, u)
                    for name in GRID_FIELDS:
                        assert np.array_equal(getattr(got, name)[k], getattr(want, name)), (spec.n, model, name)
            got = joint_lst_limit(spec, part, model.tail_pair(HEAVY), grid)
            assert got.factor_values.shape == (5, part.m)
            for k, w in enumerate(grid):
                want = joint_lst_limit(spec, part, model.tail_pair(HEAVY), w)
                assert got.value[k] == want.value and np.array_equal(got.factor_values[k], want.factor_values)


def _error(evaluate, w):
    """The type and message of the error evaluate(w) raises."""
    with pytest.raises((ValueError, ScalingRangeError)) as raised:
        evaluate(w)
    return type(raised.value), str(raised.value)


def test_a_grid_raises_the_error_its_bad_row_raises_alone():
    rng = np.random.default_rng(457)
    spec = random_spec(rng, 9)
    part, model, tail = partition_rates(spec), CenteredGamma(2.0, 1.5), TailPair(1.5, 0.7)
    exact_at = lambda w: joint_lst_exact(spec, model, w, 2.0)
    limit_at = lambda w: joint_lst_limit(spec, part, tail, w)
    good = rng.uniform(0.1, 2.0, (4, spec.n)).tolist()
    row = good[2]
    bad_rows = {  # the bad row 2, and the transforms that refuse it
        "length": (row[:-1], (exact_at, limit_at)),
        "nan": ([*row[:3], math.nan, *row[4:]], (exact_at, limit_at)),
        "negative": ([*row[:5], -0.5, *row[6:]], (exact_at, limit_at)),
        # a nonzero entry that the limit's fraction power takes below the normal float range
        "lost scaling": ([*row[:4], 1e-310, *row[5:]], (limit_at,)),
    }
    for kind, (bad, refusing) in bad_rows.items():
        rows = [*good[:2], bad, good[3]]
        for evaluate in refusing:
            want = _error(evaluate, bad)
            for grid in (rows, np.array(rows)) if kind != "length" else (rows,):  # a ragged list has no array
                assert _error(evaluate, grid) == want, kind
    # the exact transform scales nothing: there that row is a value like any other
    lost = bad_rows["lost scaling"][0]
    assert exact_at(np.array([*good[:2], lost, good[3]])).value[2] == exact_at(lost).value


def test_bad_rows_of_two_kinds_raise_the_first_bad_rows_error():
    # row 0 loses a frequency to the limit's scaling and row 1 is negative:
    # the limit and the limit sweep raise row 0's ScalingRangeError, as a call
    # per row would
    from levynet import convergence_study

    rng = np.random.default_rng(457)
    spec = random_spec(rng, 9)
    part, model = partition_rates(spec), StableSum(((1.5, 0.7),))
    limit_at = lambda w: joint_lst_limit(spec, part, model.tail_pair(HEAVY), w)
    good = rng.uniform(0.1, 2.0, spec.n)
    lost, negative = good.copy(), good.copy()
    lost[4], negative[5] = 1e-310, -0.5
    want = _error(limit_at, lost)
    assert want[0] is ScalingRangeError and want != _error(limit_at, negative)
    for grid in ([lost, negative], np.array([lost, negative])):
        assert _error(limit_at, grid) == want
        assert _error(lambda w: convergence_study(spec, part, model, HEAVY, w, [2.0]), grid) == want
    # at a u, row 0 meets the rate ordering's rise and row 1 a lost scaling:
    # the sweep raises row 0's StructuralError
    rising = tandem_spec([RateFunction.monomial(1.0, 1.0), RateFunction(((0.9, 1.0), (5.0, 0.0)))])
    rows = [[1.0, 1.0], [3e-300, 3e-300]]
    sweep = lambda w: convergence_study(rising, partition_rates(rising), Brownian(1.0), HEAVY, w, [1e-10])
    with pytest.raises(ScalingRangeError, match="^scaled frequency of node 1 underflows"):
        sweep(rows[1:])
    with pytest.raises(StructuralError, match="^r/phat rises from node 1 to node 2"):
        sweep(rows)
