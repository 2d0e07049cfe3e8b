import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from levynet import (
    Brownian,
    NetworkSpec,
    RateFunction,
    RoutingMatrix,
    StructuralError,
    build_network,
    joint_lst_exact,
    validate_assumptions,
)
from levynet import network

from conftest import (
    children,
    fronts,
    random_tree_routing,
    random_rates,
    random_spec,
    seeded_and_shipped_specs,
    tandem_spec,
)


def test_figure1_phat_and_sets(figure1_spec):
    spec = figure1_spec
    assert np.allclose(spec.phat, [1, 0.5, 1 / 6, 1 / 6, 0.5, 1 / 6], rtol=0, atol=0)
    expected_fronts = {
        1: {1},
        2: {2, 5},
        3: {3, 4, 5, 6},
        4: {4, 5, 6},
        5: {5, 6},
        6: {6},
    }
    expected_children = {1: {2, 5}, 2: {3, 4, 6}, 3: set(), 4: set(), 5: set(), 6: set()}
    for j in range(1, 7):
        assert fronts(spec, j) == expected_fronts[j]
        assert children(spec, j) == expected_children[j]
    assert spec.parent == {2: 1, 3: 2, 4: 2, 5: 1, 6: 2}


def test_single_node(single_node_spec):
    spec = single_node_spec
    assert spec.phat.tolist() == [1.0]
    assert (fronts(spec, 1), children(spec, 1)) == (frozenset({1}), frozenset())


def test_three_node_tandem_sets():
    spec = tandem_spec([RateFunction.monomial(c, 0.0) for c in (3.0, 2.0, 1.0)])
    for j in range(1, 4):
        assert fronts(spec, j) == {j}
        assert children(spec, j) == ({j + 1} if j < 3 else set())


def test_two_parent_column_rejected():
    p = np.zeros((3, 3))
    p[0, 1] = 0.5
    p[0, 2] = 0.25
    p[1, 2] = 0.25
    with pytest.raises(StructuralError, match="column 3 has 2"):
        RoutingMatrix(p)


def test_orphan_column_rejected():
    p = np.zeros((3, 3))
    p[0, 1] = 1.0
    with pytest.raises(StructuralError, match="column 3"):
        RoutingMatrix(p)


def test_lower_triangular_mass_rejected():
    p = np.zeros((2, 2))
    p[1, 0] = 0.5
    with pytest.raises(StructuralError):
        RoutingMatrix(p)


def test_row_sum_above_one_rejected():
    with pytest.raises(StructuralError, match="row 1"):
        RoutingMatrix.from_edges(3, [(1, 2, 0.7), (1, 3, 0.7)])


def test_routing_entries_lie_in_the_unit_interval_exactly():
    # no rounding makes such entries: every edge fraction of a tree lies in [0, 1]
    for frac in (-1e-13, 1.0 + 1e-13):
        with pytest.raises(StructuralError, match=r"^routing fraction p\[1,3\] = .* outside \[0, 1\]$"):
            RoutingMatrix.from_edges(3, [(1, 2, 1.0), (1, 3, frac), (2, 3, 1.0)])
    signed = RoutingMatrix.from_edges(3, [(1, 2, 1.0), (1, 3, -0.0), (2, 3, 1.0)])
    assert signed == RoutingMatrix.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0)])


def test_duplicate_edges_rejected_whatever_their_fractions():
    for edges in ([(1, 2, 0.0), (1, 2, 1.0)], [(1, 2, 1.0), (1, 2, 0.0)], [(1, 2, 1.0), (1, 2, 1.0)]):
        with pytest.raises(StructuralError, match=r"^duplicate edge \(1 -> 2\)$"):
            RoutingMatrix.from_edges(2, edges)


def test_routing_matrix_is_square_and_non_empty():
    for p in (np.zeros((0, 0)), np.zeros((2, 3)), np.zeros(4)):
        with pytest.raises(StructuralError, match=r"^routing matrix must be square and non-empty, got shape"):
            RoutingMatrix(p)
    with pytest.raises(StructuralError, match="square and non-empty"):
        RoutingMatrix.from_edges(0, [])
    assert RoutingMatrix(np.zeros((1, 1))).n == 1
    assert RoutingMatrix.from_edges(3, [(1, 2, 1.0), (2, 3, 0.5)]).n == 3


def test_rate_count_mismatch():
    routing = RoutingMatrix.from_edges(2, [(1, 2, 1.0)])
    for build in (build_network, NetworkSpec):
        with pytest.raises(StructuralError, match="^expected 2 rate functions, got 1$"):
            build(routing, [RateFunction.monomial(1.0, 0.0)])


def test_derived_structure_restates_the_definitions():
    for spec in seeded_and_shipped_specs(37):
        n, p = spec.n, spec.routing.p
        parent = {j: int(np.flatnonzero(p[:, j - 1])[0]) + 1 for j in range(2, n + 1)}
        assert spec.parent == parent
        for j in range(1, n + 1):
            path = [j]  # from node j up to the root
            while path[-1] > 1:
                path.append(parent[path[-1]])
            path.reverse()
            fractions = [p[a - 1, b - 1] for a, b in zip(path, path[1:])]
            assert spec.phat[j - 1] == math.prod(fractions), j
            front = {l for l in range(j, n + 1) if l == 1 or parent[l] < j}
            assert fronts(spec, j) == front and children(spec, j) == {l for l in parent if parent[l] == j}
            assert spec.front_matrix[j - 1].tolist() == [float(l in front) for l in range(1, n + 1)]
        k = max(len(r.terms) for r in spec.rates)
        for j, r in enumerate(spec.rates):
            padding = [0.0] * (k - len(r.terms))
            assert spec.rate_coeffs[j].tolist() == [c for c, _ in r.terms] + padding
            assert spec.rate_exps[j].tolist() == [e for _, e in r.terms] + padding
        for obj in (spec, spec.layout):
            arrays = [v for v in vars(obj).values() if isinstance(v, np.ndarray)]
            assert arrays and not any(a.flags.writeable for a in arrays)


def test_build_is_deterministic():
    rng = np.random.default_rng(0)
    routing = random_tree_routing(rng, 7)
    phat = np.ones(7)
    rates = random_rates(np.random.default_rng(1), phat)
    a = build_network(routing, rates)
    b = build_network(routing, rates)
    assert np.array_equal(a.phat, b.phat)
    assert np.array_equal(a.front_matrix, b.front_matrix) and a.parent == b.parent


def test_specs_compare_by_routing_and_rates():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 9):
        routing = random_tree_routing(rng, n)
        rates = random_rates(rng, np.ones(n))
        spec = build_network(routing, rates)
        again = build_network(RoutingMatrix(routing.p.copy()), list(rates))
        assert routing == again.routing and spec == again
        if n == 1:
            continue
        p = routing.p.copy()
        p[np.nonzero(p)[0][0], np.nonzero(p)[1][0]] *= 0.5
        other_rates = [rates[0].scaled(2.0), *rates[1:]]
        assert RoutingMatrix(p) != routing
        assert build_network(RoutingMatrix(p), rates) != spec
        assert build_network(routing, other_rates) != spec


def test_phat_solves_linear_system():
    rng = np.random.default_rng(5)
    for _ in range(25):
        spec = random_spec(rng, int(rng.integers(2, 10)))
        n = spec.n
        lhs = (np.eye(n) - spec.routing.p.T) @ spec.phat
        e1 = np.zeros(n)
        e1[0] = 1.0
        assert np.allclose(lhs, e1, atol=1e-13)


def test_validate_figure1_passes_at_probe_two(figure1_spec):
    report = validate_assumptions(figure1_spec, u_probe=2.0)
    assert report.passed
    names = [c.assumption for c in report.checks]
    assert names == ["routing-shape", "rate-ordering[u-probe]", "rate-ordering[u-large]", "ratio-limits"]
    # the consecutive pair (3, 4) ties exactly at u = 2 and may cross below it
    assert "equality" in report.checks[1].detail
    assert "cross" in report.checks[2].detail


def test_validate_rate_inversion_fails_everywhere():
    spec = tandem_spec([RateFunction.monomial(1.0, 1.0), RateFunction.monomial(2.0, 1.0)])
    for probe in (0.5, 1.0, 7.0):
        report = validate_assumptions(spec, u_probe=probe)
        assert not report.passed
        by_name = {c.assumption: c.passed for c in report.checks}
        assert not by_name["rate-ordering[u-probe]"]
        assert not by_name["rate-ordering[u-large]"]


def test_validate_superlinear_later_rate_fails_ratio_limits():
    spec = tandem_spec([RateFunction.monomial(1.0, 1.0), RateFunction.monomial(1.0, 2.0)])
    report = validate_assumptions(spec, u_probe=2.0)
    by_name = {c.assumption: c.passed for c in report.checks}
    assert not by_name["ratio-limits"]
    assert not report.passed


def test_validate_rejects_bad_probe(single_node_spec):
    with pytest.raises(ValueError):
        validate_assumptions(single_node_spec, u_probe=0.0)


def test_rate_function_merges_and_rejects():
    f = RateFunction(((1.0, 2.0), (3.0, 1.0), (2.0, 2.0)))
    assert f.terms == ((3.0, 2.0), (3.0, 1.0))
    assert f(2.0) == 3.0 * 4.0 + 3.0 * 2.0
    with pytest.raises(ValueError):
        RateFunction(((-1.0, 1.0),))
    with pytest.raises(ValueError):
        f(0.0)
    # every term is checked, and so is each merged sum: 1e308 + 1e308 is inf
    with pytest.raises(ValueError, match=r"^monomial coefficient must be positive and finite, got inf\*u\*\*1.0$"):
        RateFunction(((1e308, 1.0), (math.inf, 1.0)))
    with pytest.raises(ValueError, match=r"^monomial coefficients of u\*\*1.0 sum past the float range$"):
        RateFunction(((1e308, 1.0), (1e308, 1.0)))
    assert RateFunction(((1e308, 1.0), (1e308, 2.0))).terms == ((1e308, 2.0), (1e308, 1.0))


def test_empty_rates_non_positive_scales_and_non_finite_routing_are_refused():
    with pytest.raises(ValueError, match="^rate function needs at least one monomial term$"):
        RateFunction(())
    for factor in (0.0, -2.0):
        with pytest.raises(ValueError, match="^scale factor must be positive$"):
            RateFunction.monomial(1.0, 1.0).scaled(factor)
    for bad in (math.nan, math.inf):
        with pytest.raises(StructuralError, match="^routing matrix has non-finite entries$"):
            RoutingMatrix(np.array([[0.0, bad], [0.0, 0.0]]))


def checks_of(report):
    return {c.assumption: (c.passed, c.detail) for c in report.checks}


def test_validate_sign_at_infinity_and_ratio_limits():
    a, b, c = RateFunction.monomial(2.0, 2.0), RateFunction.monomial(4.0, 2.0), RateFunction.monomial(9.0, 1.0)
    holds = "strict ordering of rate/phat ratios holds for all large u"
    fails = "r_1/phat_1 does not dominate r_2/phat_2 for large u"
    crossing = "; warning: pair [1] may cross at intermediate u (mixed-sign monomial difference)"
    infinite = "limit of r_2/r_1 is infinite; later nodes must not dominate earlier ones"
    finite = "all ratio limits r_i/r_j (i > j) exist and are finite (max {})"
    cases = [  # rates, large-u check, ratio-limits check
        ((b, a), (True, holds), (True, finite.format("0.5"))),  # 4u^2 - 2u^2: sign +; r_2/r_1 -> 0.5
        ((a, c), (True, holds + crossing), (True, finite.format("0"))),  # 2u^2 - 9u: sign +; r_2/r_1 -> 0
        ((c, a), (False, fails), (False, infinite)),  # 9u - 2u^2: sign -; r_2/r_1 -> inf
        ((a, a), (False, fails), (True, finite.format("1"))),  # identical: sign 0
    ]
    for rates, large_u, ratio_limits in cases:
        checks = checks_of(validate_assumptions(tandem_spec(list(rates))))
        assert (checks["rate-ordering[u-large]"], checks["ratio-limits"]) == (large_u, ratio_limits), rates


def test_nearly_equal_rates_are_ordered_exactly():
    # rates u and (1 - 1e-13) u: r_1 > r_2 for every u > 0, by 1e-13 relative
    faster, slower = RateFunction.monomial(1.0, 1.0), RateFunction.monomial(1.0 - 1e-13, 1.0)
    assert validate_assumptions(tandem_spec([faster, slower])).passed
    checks = checks_of(validate_assumptions(tandem_spec([slower, faster])))
    assert checks["rate-ordering[u-large]"] == (False, "r_1/phat_1 does not dominate r_2/phat_2 for large u")
    # at the probe u = 2 the float ratios rise, by 1e-13 relative: refused, as the transforms refuse it
    assert checks["rate-ordering[u-probe]"] == (False, "r_1/phat_1 = 1.9999999999998 < r_2/phat_2 = 2.0 at u = 2")


def test_u_probe_verdict_is_the_exact_transforms_refusal():
    # one rule at u: the u-probe check passes exactly when joint_lst_exact at
    # that u does not raise StructuralError.  Seeded random trees, ordered for
    # u >= 1 only, and tandems of constant rates from {1, 2, 3}, whose ratios
    # tie exactly, rise and fall
    rng = np.random.default_rng(3501)
    verdicts = []
    for k in range(400):
        n = int(rng.integers(2, 12))
        if k % 2:
            spec = random_spec(rng, n)
        else:
            spec = tandem_spec([RateFunction.monomial(float(c), 0.0) for c in rng.integers(1, 4, n)])
        u, w = float(10.0 ** rng.uniform(-2.0, 2.0)), rng.uniform(0.0, 2.0, n)
        passed, detail = checks_of(validate_assumptions(spec, u))["rate-ordering[u-probe]"]
        try:
            assert 0.0 < joint_lst_exact(spec, Brownian(1.0), w, u).value <= 1.0
            refused = False
        except StructuralError as err:  # both name the same first rising pair
            refused = True
            j = int(detail.split("/")[0].removeprefix("r_"))
            assert str(err).startswith(f"r/phat rises from node {j} to node {j + 1}:"), (k, detail)
        assert passed != refused, (k, detail)
        verdicts.append((passed, "equality at" in detail))
    assert {(True, True), (True, False), (False, False)} <= set(verdicts)


def test_cross_sign_matches_fractions():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        a, b, d = (float(x) for x in 10.0 ** rng.uniform(-8, 8, 3))
        c = a * b / d  # c*d is within about an ulp of a*b, and sometimes equal to it
        near_ties = [(a, b, c, d), (a, b, math.nextafter(c, 0.0), d), (a, b, math.nextafter(c, math.inf), d)]
        near_ties += [(a, b, math.nextafter(a, 0.0), b), (a, b, math.nextafter(a, math.inf), b)]  # 1 ulp apart
        for args in near_ties:
            x, y, z, w = map(Fraction, args)
            assert network._cross_sign(*args) == (x * y > z * w) - (x * y < z * w), args
        for args in ((a, b, b, a), (2.0 * a, b, a, 2.0 * b), (a, 0.0, 0.0, d), (0.0, 0.0, 0.0, 0.0)):
            assert network._cross_sign(*args) == 0, args
    assert network._cross_sign(1.0, 2.0, 3.0, 0.0) == 1 and network._cross_sign(0.0, 1.0, 3.0, 2.0) == -1


def old_ratio_limits(rates):
    """The O(n^2) pair loop validate_assumptions ran before its O(n) pass: (passed, detail)."""
    n, infinite, max_ratio = len(rates), [], 0.0
    for j in range(1, n + 1):
        for i in range(j + 1, n + 1):
            (ci, ei), (cj, ej) = rates[i - 1].leading, rates[j - 1].leading
            lim = 0.0 if ei < ej else math.inf if ei > ej else ci / cj
            if math.isinf(lim):
                infinite.append((i, j))
            else:
                max_ratio = max(max_ratio, lim)
    return not infinite, f"all ratio limits r_i/r_j (i > j) exist and are finite (max {max_ratio:.6g})"


def net_signs_by_fractions(f, ph_f, g, ph_g):
    """Signs of the net coefficients of f/ph_f - g/ph_g by descending exponent, in exact rationals."""
    net = {}
    for r, ph, sign in ((f, ph_f, 1), (g, ph_g, -1)):
        for c, e in r.terms:
            net[e] = net.get(e, 0) + sign * Fraction(c) / Fraction(float(ph))
    return [(v > 0) - (v < 0) for _, v in sorted(net.items(), reverse=True) if v != 0]


def test_rate_checks_match_their_oracles_on_random_networks():
    rng = np.random.default_rng(2027)
    ratio_verdicts, large_u_verdicts = set(), set()
    for _ in range(400):
        n = int(rng.integers(1, 7))
        routing = random_tree_routing(rng, n)
        # few coefficient and exponent values, so that runs, rises, ties and sign changes all occur
        coeffs, exps = [0.5, 1.0, 1.5, 2.0, rng.uniform(0.5, 4.0)], [0.0, 0.5, 1.0, 2.0]
        rates = [RateFunction(tuple(zip(rng.choice(coeffs, k), rng.choice(exps, k)))) for k in rng.integers(1, 4, n)]
        spec = build_network(routing, rates)
        checks = checks_of(validate_assumptions(spec))
        passed, detail = checks["ratio-limits"]
        want_passed, want_detail = old_ratio_limits(rates)
        assert passed == want_passed
        if passed:
            assert detail == want_detail
            assert network.first_rise(spec.rate_exps[:, 0]) == 0
        else:  # the first adjacent pair whose leading exponent rises
            exps = [r.leading[1] for r in rates]
            j = next(j for j in range(1, n) if exps[j] > exps[j - 1])
            assert detail.startswith(f"limit of r_{j + 1}/r_{j} is infinite;")
            assert network.first_rise(spec.rate_exps[:, 0]) == j
        ratio_verdicts.add(passed)
        ph = spec.phat
        signs = [net_signs_by_fractions(rates[j - 1], ph[j - 1], rates[j], ph[j]) for j in range(1, n)]
        bad = [j for j, s in enumerate(signs, start=1) if not s or s[0] < 0]
        crossings = [j for j, s in enumerate(signs, start=1) if len(set(s)) > 1]
        if bad:
            j = bad[0]
            want = (False, f"r_{j}/phat_{j} does not dominate r_{j + 1}/phat_{j + 1} for large u")
        else:
            detail = "strict ordering of rate/phat ratios holds for all large u"
            if crossings:
                plural = "s" if len(crossings) > 1 else ""
                detail += f"; warning: pair{plural} {crossings} may cross at intermediate u"
                detail += " (mixed-sign monomial difference)"
            want = (True, detail)
        assert checks["rate-ordering[u-large]"] == want
        large_u_verdicts.add((not bad, bool(crossings)))
    assert ratio_verdicts == {True, False}  # both verdicts, and (passes, warns) below, all occur
    assert large_u_verdicts >= {(True, True), (True, False), (False, False)}


@st.composite
def tree_instances(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return n, seed


@given(tree_instances())
def test_set_relations_hold(instance):
    n, seed = instance
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, n)
    full = set(range(1, n + 1))
    front, child = ({j: sets(spec, j) for j in full} for sets in (fronts, children))
    for j in full:
        downstream = set().union(*(child[l] for l in range(j, n + 1)))
        assert front[j] & downstream == set()
        assert front[j] | downstream == set(range(j, n + 1))
        if j < n:
            assert front[j + 1] == (front[j] | child[j]) - {j}
    for j in full:
        for k in full:
            if j != k:
                assert child[j] & child[k] == set()
            lo = spec.parent[k] + 1 if k > 1 else 1
            assert (k in front[j]) == (lo <= j <= k)


def test_packed_rate_vector_matches_rate_functions():
    # rate_vector evaluates the packed monomials with np.power, which may
    # differ from Python's ** by an ulp; the sum keeps each node's term order
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        rates = [
            RateFunction(tuple(zip(10.0 ** rng.uniform(-3, 3, k), rng.uniform(-1.5, 3.0, k))))
            for k in rng.integers(1, 5, n)
        ]
        spec = build_network(random_tree_routing(rng, n), rates)
        assert spec.rate_coeffs.shape == spec.rate_exps.shape == (n, max(len(r.terms) for r in rates))
        for u in 10.0 ** rng.uniform(-3, 12, 20):
            want = np.array([r(u) for r in spec.rates])
            assert np.all(np.abs(spec.rate_vector(u) - want) <= 5e-16 * want), u


def test_packed_rates_are_read_only_and_reject_nonpositive_u(figure1_spec):
    for packed in (figure1_spec.rate_coeffs, figure1_spec.rate_exps):
        with pytest.raises(ValueError):
            packed[0, 0] = 1.0
    for u in (0.0, -2.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError) as packed_error:
            figure1_spec.rate_vector(u)
        with pytest.raises(ValueError) as scalar_error:
            figure1_spec.rates[0](u)
        message = f"rate functions are defined for 0 < u < inf, got u={u}"
        assert str(packed_error.value) == str(scalar_error.value) == message
        with pytest.raises(ValueError, match=f"^{message}$"):
            validate_assumptions(figure1_spec, u_probe=u)
