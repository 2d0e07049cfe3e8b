import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from levynet import (
    Brownian,
    CenteredGamma,
    CompoundPoisson,
    DeterministicJob,
    ErlangJob,
    ExponentialJob,
    RateFunction,
    ScalingRangeError,
    StructuralError,
    TailPair,
    convergence_study,
    joint_lst_limit,
    load_network,
    partition_rates,
    StableSum,
    singular_limit,
    starred_sets,
)
from levynet import build_network, limit, RateClassPartition, RoutingMatrix
from levynet.exact import _class_factors
from levynet.network import ClassRates

from conftest import random_spec, random_tail, rescaled_reference, tandem_spec
from oracles import (
    TandemParams,
    TwoLayerParams,
    closed_form_tandem,
    closed_form_two_layer,
    psi_limit_inverse,
    scaling_coefficients,
)


def two_layer_spec(p, fr, lead_exp=3.0, leaf_exp=1.0):
    """Star network whose partition reproduces the given leaf rate fractions."""
    n = 1 + len(p)
    routing = RoutingMatrix.from_edges(n, [(1, j + 2, pj) for j, pj in enumerate(p)])
    rates = [RateFunction.monomial(5.0, lead_exp)]
    rates += [RateFunction.monomial(f, leaf_exp) for f in fr]
    return build_network(routing, rates)


def split_tandem_spec(anchors, fr, base_exp=2.0):
    """Chain whose classes are delimited by the given anchors."""
    n = len(fr)
    bounds = list(anchors) + [n + 1]
    exps = np.empty(n)
    for k in range(len(anchors)):
        exps[bounds[k] - 1 : bounds[k + 1] - 1] = base_exp - 1.5 * k
    return tandem_spec([RateFunction.monomial(c, e) for c, e in zip(fr, exps)])


def displayed_factors(spec, part, tail, w):
    """Class factors reassembled from the scaling coefficients by the displayed
    formula w~_last * frac_last / |A_k| * prod_j |C_j| / |D_j|."""
    sc = scaling_coefficients(spec, part, tail, w)
    scaled = part.fractions**tail.beta * w
    factors = []
    for members in part.classes:
        q, last = members[0], members[-1]
        f = scaled[last - 1] * part.fractions[last - 1] / abs(sc.drift_gap[q - 1])
        for j in members[:-1]:
            f *= abs(sc.num_lead[j - 1]) / abs(sc.den_lead[j - 1])
        factors.append(f)
    return np.array(factors)


def test_psi_limit_inverse_zero_and_quadratic():
    assert psi_limit_inverse(2.0, 1.0, 1.0, 1.0, 0.0) == 0.0
    assert psi_limit_inverse(2.0, 1.0, 1.0, 1.0, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_psi_limit_inverse_round_trip():
    rng = np.random.default_rng(61)
    for _ in range(50):
        alpha = rng.uniform(1.1, 2.0)
        coeff = rng.uniform(0.2, 3.0)
        fr = rng.uniform(0.1, 1.0)
        ph = rng.uniform(0.1, 1.0)
        x = rng.uniform(0.0, 50.0)
        s = psi_limit_inverse(alpha, coeff, fr, ph, x)
        assert fr * s + coeff * ph**alpha * s**alpha == pytest.approx(x, rel=1e-11, abs=1e-13)


def test_psi_limit_inverse_validation():
    with pytest.raises(ValueError):
        psi_limit_inverse(1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        psi_limit_inverse(1.5, -1.0, 1.0, 1.0, 1.0)


def test_constants_singleton_class():
    spec = split_tandem_spec((1, 2), [1.0, 1.0])
    part = partition_rates(spec)
    tail = TailPair(1.5, 0.8)
    w = np.array([0.7, 1.1])
    sc = scaling_coefficients(spec, part, tail, w)
    factors = joint_lst_limit(spec, part, tail, w).factor_values
    for k, wk in ((1, 0.7), (2, 1.1)):
        assert sc.drift_gap[k - 1] == pytest.approx(-wk - 0.8 * wk**1.5, rel=1e-14)
        assert factors[k - 1] == pytest.approx(wk / abs(sc.drift_gap[k - 1]), rel=1e-14)


def test_constants_vanish_at_zero(figure1_spec, figure1_partition):
    tail = TailPair(2.0, 0.5)
    sc = scaling_coefficients(figure1_spec, figure1_partition, tail, np.zeros(6))
    for values in (sc.drift_gap, sc.kappa_lead, sc.num_lead, sc.den_lead):
        assert all(v == 0.0 for v in values)
    res = joint_lst_limit(figure1_spec, figure1_partition, tail, np.zeros(6))
    assert res.value == 1.0 and res.factor_values.tolist() == [1.0, 1.0]


def test_tandem_pair_class_denominator_matches_display():
    # class {1, 2} with fractions (1, fr2), evaluated at the fraction-scaled
    # argument: A equals the chain formula (1 - fr2) w2 fr2^beta - w1 - c w1^alpha
    fr2 = 0.55
    spec = split_tandem_spec((1,), [1.0, fr2])
    part = partition_rates(spec)
    tail = TailPair(1.7, 0.9)
    w = np.array([0.8, 1.3])
    sc = scaling_coefficients(spec, part, tail, w)
    expected = (1.0 - fr2) * w[1] * fr2**tail.beta - w[0] - 0.9 * w[0] ** 1.7
    assert sc.drift_gap[0] == pytest.approx(expected, rel=1e-12)


def test_decoupled_tandem_mittag_leffler_product():
    n = 4
    spec = tandem_spec([RateFunction.monomial(1.0, float(n - j)) for j in range(n)])
    part = partition_rates(spec)
    tail = TailPair(1.6, 0.7)
    rng = np.random.default_rng(67)
    for _ in range(20):
        w = rng.uniform(0.0, 3.0, n)
        got = joint_lst_limit(spec, part, tail, w).value
        expected = np.prod([1.0 / (1.0 + 0.7 * x**0.6) if x > 0 else 1.0 for x in w])
        assert got == pytest.approx(expected, rel=1e-12)


def test_singleton_class_reduction_with_phat():
    # a singleton class contributes 1 / (1 + c * phat^alpha * w^(alpha-1))
    rng = np.random.default_rng(71)
    for _ in range(20):
        spec = random_spec(rng, int(rng.integers(2, 9)), max_classes=3)
        part = partition_rates(spec)
        singles = [k for k in range(1, part.m + 1) if len(part.classes[k - 1]) == 1]
        if not singles:
            continue
        tail = random_tail(rng)
        k = singles[0]
        j = part.classes[k - 1][0]
        wj = rng.uniform(0.1, 3.0)
        w = np.zeros(spec.n)
        w[j - 1] = wj
        got = joint_lst_limit(spec, part, tail, w).value
        ph = spec.phat[j - 1]
        assert got == pytest.approx(
            1.0 / (1.0 + tail.coeff * ph**tail.alpha * wj ** (tail.alpha - 1.0)), rel=1e-12
        )


def test_two_layer_root_marginal_and_uniform_split():
    p = [0.25] * 4
    fr = [1.0] * 4
    spec = two_layer_spec(p, fr)
    part = partition_rates(spec)
    tail = TailPair(1.5, 1.1)
    w1 = 0.9
    w = np.zeros(5)
    w[0] = w1
    got = joint_lst_limit(spec, part, tail, w).value
    assert got == pytest.approx(1.0 / (1.0 + 1.1 * w1**0.5), rel=1e-12)

    leaf = np.array([0.0, 0.4, 1.0, 0.7, 0.3])
    got = joint_lst_limit(spec, part, tail, leaf).value
    total = leaf[1:].sum()
    expected = 1.0 / (1.0 + 1.1 * 0.25**1.5 * total**0.5)
    assert got == pytest.approx(expected, rel=1e-12)


def test_two_layer_oracle_agreement():
    rng = np.random.default_rng(73)
    for _ in range(25):
        n_leaves = int(rng.integers(1, 5))
        raw = rng.uniform(0.2, 1.0, n_leaves)
        p = tuple(raw / raw.sum() * rng.uniform(0.6, 1.0))
        ratios = np.cumprod(rng.uniform(0.45, 0.95, n_leaves)) / 0.45
        fr = tuple(r * pj for r, pj in zip(ratios, p))
        alpha, coeff = rng.uniform(1.15, 2.0), rng.uniform(0.3, 1.5)
        spec = two_layer_spec(p, fr)
        part = partition_rates(spec)
        tail = TailPair(alpha, coeff)
        params = TwoLayerParams(p, fr, alpha, coeff)
        w = rng.uniform(0.05, 2.5, 1 + n_leaves)
        got = joint_lst_limit(spec, part, tail, w).value
        oracle = closed_form_two_layer(params, w)
        assert got == pytest.approx(oracle, rel=1e-10)


def test_tandem_oracle_agreement():
    rng = np.random.default_rng(79)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, min(n, 3) + 1))
        anchors = (1, *sorted(rng.choice(np.arange(2, n + 1), size=m - 1, replace=False))) if m > 1 else (1,)
        bounds = list(anchors) + [n + 1]
        fr = np.empty(n)
        for k in range(m):
            size = bounds[k + 1] - bounds[k]
            steps = np.concatenate([[1.0], rng.uniform(0.4, 0.9, size - 1)])
            fr[bounds[k] - 1 : bounds[k + 1] - 1] = np.cumprod(steps)
        alpha, coeff = rng.uniform(1.15, 2.0), rng.uniform(0.3, 1.5)
        spec = split_tandem_spec(anchors, list(fr))
        part = partition_rates(spec)
        tail = TailPair(alpha, coeff)
        params = TandemParams(tuple(int(a) for a in anchors), tuple(fr), alpha, coeff)
        w = rng.uniform(0.05, 2.5, n)
        got = joint_lst_limit(spec, part, tail, w).value
        oracle = closed_form_tandem(params, w)
        assert got == pytest.approx(oracle, rel=1e-10)


def test_class_factorization_exact():
    rng = np.random.default_rng(83)
    for _ in range(20):
        spec = random_spec(rng, int(rng.integers(2, 9)))
        part = partition_rates(spec)
        tail = random_tail(rng)
        w = rng.uniform(0.05, 2.0, spec.n)
        full = joint_lst_limit(spec, part, tail, w)
        product = 1.0
        for k in range(1, part.m + 1):
            restricted = np.zeros(spec.n)
            for i in part.classes[k - 1]:
                restricted[i - 1] = w[i - 1]
            product *= joint_lst_limit(spec, part, tail, restricted).value
        assert full.value == pytest.approx(product, rel=1e-14)


def test_class_layout_and_factors_match_the_classes():
    # the layout arrays restate partition.classes, and each class factor is
    # the product of its nodes' factors, prefactor first, as math.prod takes it
    rng = np.random.default_rng(97)
    specs = [random_spec(rng, int(rng.integers(1, 40))) for _ in range(12)]
    for n in (1, 2, 9, 30):  # leading exponents fall strictly: every node is a class
        spec = random_spec(rng, n)
        rates = [RateFunction.monomial(r.leading[0], 2.0 - 0.05 * j) for j, r in enumerate(spec.rates)]
        specs.append(build_network(spec.routing, rates))
    for spec in specs:
        part = partition_rates(spec)
        lay = part.layout
        ends = [members[-1] - 1 for members in part.classes]
        assert lay.ends.tolist() == ends
        assert lay.inner.tolist() == sorted(set(range(spec.n)) - set(ends))
        assert [c.tolist() for c in np.split(lay.order, lay.starts[1:])] == [
            [members[-1] - 1, *(i - 1 for i in members[:-1])] for members in part.classes
        ]
        for alpha in (2.0, 1.5):
            tail = TailPair(alpha, rng.uniform(0.2, 2.0))
            w = rng.uniform(0.05, 2.5, spec.n)
            scaled = part.fractions**tail.beta * w
            model = StableSum(((tail.alpha, tail.coeff),))
            f = _class_factors(model, ClassRates(lay, part.fractions), scaled, scaled.max())[0].tolist()  # node order
            want = [math.prod([f[c[-1] - 1], *(f[i - 1] for i in c[:-1])]) for c in part.classes]
            assert joint_lst_limit(spec, part, tail, w).factor_values.tolist() == want


def test_reference_rescaling_invariance():
    rng = np.random.default_rng(89)
    for _ in range(20):
        spec = random_spec(rng, int(rng.integers(2, 9)))
        part = partition_rates(spec)
        tail = random_tail(rng)
        w = rng.uniform(0.05, 2.0, spec.n)
        base = joint_lst_limit(spec, part, tail, w).value
        rescaled = part
        for k in range(1, part.m + 1):
            rescaled = rescaled_reference(rescaled, k, rng.uniform(0.2, 5.0))
        other = joint_lst_limit(spec, rescaled, tail, w).value
        assert other == pytest.approx(base, rel=1e-12)


def _singular_point(fr2, fr3, tail):
    """Scaled frequencies in a 3-node class where the first ratio denominator vanishes."""
    w2 = 0.8
    w3 = (fr2 * w2 + tail.coeff * w2**tail.alpha) / (fr2 - fr3)
    return w2, w3


def test_singular_limit_at_constructed_zero():
    fr = [1.0, 0.6, 0.3]
    spec = split_tandem_spec((1,), fr)
    part = partition_rates(spec)
    tail = TailPair(1.6, 0.9)
    w2t, w3t = _singular_point(0.6, 0.3, tail)
    scaled = np.array([0.5, w2t, w3t])
    raw = scaled / part.fractions**tail.beta
    res = joint_lst_limit(spec, part, tail, raw)
    assert np.isfinite(res.value) and 0.0 < res.value <= 1.0
    factor = singular_limit(spec, part, tail, raw, 1)
    jit = joint_lst_limit(spec, part, tail, raw + 1e-7).factor_values[0]
    assert factor == pytest.approx(jit, rel=1e-4)


def test_singular_limit_matches_regular_point():
    spec = split_tandem_spec((1,), [1.0, 0.6, 0.3])
    part = partition_rates(spec)
    tail = TailPair(1.6, 0.9)
    w = np.array([0.5, 0.8, 1.1])
    regular = joint_lst_limit(spec, part, tail, w)
    resolved = singular_limit(spec, part, tail, w, 1)
    assert resolved == pytest.approx(regular.factor_values[0], rel=1e-6)


def test_last_ratio_denominator_strictly_negative():
    rng = np.random.default_rng(97)
    checked = 0
    while checked < 30:
        spec = random_spec(rng, int(rng.integers(2, 9)))
        part = partition_rates(spec)
        tail = random_tail(rng)
        w = rng.uniform(0.1, 2.5, spec.n)
        sc = scaling_coefficients(spec, part, tail, w)
        for members in part.classes:
            if len(members) > 1:
                assert sc.den_lead[members[-1] - 2] < 0.0
                checked += 1


def test_vanishing_last_frequency_alpha_two_resolves_to_marginal():
    # class {1, 2}, alpha = 2: at w2 = 0 the displayed factor is 0/0, and the
    # difference quotients give the node-1 marginal factor
    fr2 = 0.55
    spec = split_tandem_spec((1,), [1.0, fr2])
    part = partition_rates(spec)
    tail = TailPair(2.0, 0.9)
    w = np.array([0.9, 0.0])
    res = joint_lst_limit(spec, part, tail, w)
    expected = 1.0 / (1.0 + 0.9 * 0.9)
    assert res.value == pytest.approx(expected, rel=1e-4)


@pytest.mark.parametrize("alpha", [1.7, 1.3])
def test_vanishing_last_frequency_fractional_alpha_gives_marginal(alpha):
    # for alpha < 2 the displayed factor approaches this point with an
    # eps**(alpha-1) correction; the factor formula has no such term and
    # returns the Mittag-Leffler marginal of node 1
    spec = split_tandem_spec((1,), [1.0, 0.55])
    part = partition_rates(spec)
    tail = TailPair(alpha, 0.9)
    res = joint_lst_limit(spec, part, tail, np.array([0.9, 0.0]))
    assert res.value == pytest.approx(1.0 / (1.0 + 0.9 * 0.9 ** (alpha - 1.0)), rel=1e-12)


def _tandem_mp(anchors, fr, alpha, coeff, omega):
    """The displayed tandem limit formula evaluated at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        alpha, coeff = mpmath.mpf(alpha), mpmath.mpf(coeff)
        fr = [mpmath.mpf(x) for x in fr]
        ws = [f ** (1 / (alpha - 1)) * mpmath.mpf(x) for f, x in zip(fr, omega)]
        bounds = [*anchors, len(fr) + 1]
        value = mpmath.mpf(1)
        for q, nxt in zip(bounds, bounds[1:]):
            last = nxt - 1

            def arg(j):
                return mpmath.fsum((fr[l - 2] - fr[l - 1]) * ws[l - 1] for l in range(j + 1, last + 1))

            f = ws[last - 1] * fr[last - 1] / (arg(q) - ws[q - 1] - coeff * ws[q - 1] ** alpha)
            for j in range(q, last):
                x, r = arg(j), fr[j - 1]
                inv = mpmath.findroot(lambda s: r * s + coeff * s**alpha - x, (0, x / r), solver="anderson")
                f *= (inv - ws[j - 1]) / (inv - ws[j])
            value *= abs(f)
        return float(value)


@pytest.mark.parametrize(
    "alpha, coeff, anchors, fr, omega",
    [
        (
            1.6398705043586985,
            0.5280825066530679,
            (1,),
            (1.0, 0.8825530407829133, 0.5756180730679328),
            (1.2088332043712948, 0.27828182375455507, 1.9213321381342567),
        ),
        (
            1.3693796525491688,
            1.4270519176249803,
            (1, 4),
            (1.0, 0.8138684696708804, 0.5413034085551256, 1.0, 0.7273257848477943, 0.6375095349740885),
            (
                0.7761682711622506,
                0.05215235626339064,
                1.6360668885069884,
                1.2922450795424023,
                0.05034627102592292,
                0.8576661995775494,
            ),
        ),
    ],
)
def test_tandem_limit_matches_high_precision_formula(alpha, coeff, anchors, fr, omega):
    # the displayed formula cancels in float (1.6e-10 and 6.6e-10 here); the
    # class factor formula keeps full precision
    spec = split_tandem_spec(anchors, list(fr))
    part = partition_rates(spec)
    tail = TailPair(alpha, coeff)
    got = joint_lst_limit(spec, part, tail, np.array(omega)).value
    assert got == pytest.approx(_tandem_mp(anchors, fr, alpha, coeff, omega), rel=1e-12)


def test_rate_ordering_checked_within_class():
    # fraction/phat rises from node 1 to node 2 inside one class
    spec = split_tandem_spec((1,), [0.5, 1.0])
    part = partition_rates(spec)
    with pytest.raises(StructuralError, match="within class"):
        joint_lst_limit(spec, part, TailPair(1.5, 1.0), np.array([0.5, 0.5]))


def test_spec_that_is_not_the_partitions_network_is_refused():
    rates = [RateFunction.monomial(c, 1.0) for c in (4.0, 1.0, 0.5)]
    chain = [(1, 2, 1.0), (2, 3, 1.0)]
    tandem = build_network(RoutingMatrix.from_edges(3, chain), rates)
    tree = build_network(RoutingMatrix.from_edges(3, [(1, 2, 0.5), (1, 3, 0.5)]), rates)
    part = partition_rates(tandem)
    tail, w = TailPair(1.5, 1.0), np.array([0.5, 0.7, 0.9])
    assert joint_lst_limit(tree, partition_rates(tree), tail, w).value != joint_lst_limit(tandem, part, tail, w).value
    calls = (
        lambda spec: joint_lst_limit(spec, part, tail, w),
        lambda spec: singular_limit(spec, part, tail, w, 1),
        lambda spec: scaling_coefficients(spec, part, tail, w),
        lambda spec: starred_sets(spec, part, 2),
        lambda spec: convergence_study(spec, part, Brownian(1.0), "heavy", [w], [10.0]),
    )
    for call in calls:
        with pytest.raises(StructuralError, match="not the partition's network"):
            call(tree)
    # an equal network built again from the same routing and rates is accepted, bit for bit
    again = build_network(RoutingMatrix.from_edges(3, chain), list(rates))
    assert again is not tandem
    for call in calls:
        assert pickle.dumps(call(again)) == pickle.dumps(call(tandem))


def test_telescoping_identity_smoke():
    rng = np.random.default_rng(101)
    for _ in range(30):
        spec = random_spec(rng, int(rng.integers(2, 9)))
        part = partition_rates(spec)
        tail = random_tail(rng)
        w = rng.uniform(0.0, 3.0, spec.n)
        sc = scaling_coefficients(spec, part, tail, w)
        for j in range(spec.n - 1):
            a_next = sc.drift_gap[j + 1]
            assert abs(sc.downstream_gap[j] - a_next) <= 1e-12 * max(abs(a_next), 1e-300)


def _class_constant_cases(rng):
    """20 small trees, then 5 deep trees with more than one rate class."""
    for _ in range(20):
        yield random_spec(rng, int(rng.integers(2, 9)))
    deep = 0
    while deep < 5:
        spec = random_spec(rng, int(rng.integers(30, 101)))
        if partition_rates(spec).m > 1:
            deep += 1
            yield spec


def test_scaling_coefficients_match_class_constants():
    # scaling_coefficients sums over starred sets and evaluates the displayed
    # formula, so it is an independent check on the class factors.  That
    # formula subtracts nearly equal terms in float (1.3e-10 relative on the
    # deep trees here), hence the tolerance.
    rng = np.random.default_rng(103)
    for spec in _class_constant_cases(rng):
        part = partition_rates(spec)
        tail = random_tail(rng)
        w = rng.uniform(0.05, 2.5, spec.n)
        got = joint_lst_limit(spec, part, tail, w).factor_values
        assert displayed_factors(spec, part, tail, w) == pytest.approx(got, rel=1e-9)


def test_branched_two_class_limit_matches_scaled_exact(figure1_spec, figure1_partition):
    # the six-node reference network has a chain class and a parallel class:
    # the scaled exact transform contracts onto the limit at rate 1/u
    from levynet import Brownian, convergence_study

    rng = np.random.default_rng(4)
    w = rng.uniform(0.1, 1.5, 6)
    rows = convergence_study(
        figure1_spec, figure1_partition, Brownian(1.0), "light", [w], [10.0, 100.0, 1000.0]
    )
    gaps = [r["gap"] for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[1] == pytest.approx(gaps[0] / 10.0, rel=0.15)
    assert gaps[2] == pytest.approx(gaps[1] / 10.0, rel=0.15)


def test_multi_term_rates_through_partition_and_sweep():
    # lower-order monomial terms change nothing in the limit but shift the
    # exact transform at finite u; the sweep still contracts onto the limit
    from levynet import Brownian, convergence_study, validate_assumptions

    rates = [
        RateFunction(((3.0, 2.0), (1.0, 1.0))),
        RateFunction(((1.0, 2.0), (0.5, 0.5))),
        RateFunction(((2.0, 1.0),)),
    ]
    spec = tandem_spec(rates)
    assert validate_assumptions(spec, 2.0).passed
    part = partition_rates(spec)
    assert part.classes == ((1, 2), (3,))
    assert np.allclose(part.fractions, [1.0, 1 / 3, 1.0])
    model = Brownian(1.0)
    rows = convergence_study(
        spec, part, model, "light", [np.array([0.6, 0.9, 0.4])], [10.0, 100.0, 1000.0]
    )
    gaps = [r["gap"] for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]


def test_closed_forms_reject_degenerate_boundary():
    from levynet import SingularFactorError

    params = TwoLayerParams((0.4, 0.4), (0.4, 0.2), 1.5, 1.0)
    with pytest.raises(SingularFactorError):
        closed_form_two_layer(params, np.array([0.5, 1.0, 0.0]))
    tparams = TandemParams((1,), (1.0, 0.5), 1.5, 1.0)
    with pytest.raises(SingularFactorError):
        closed_form_tandem(tparams, np.array([1.0, 0.0]))
    # all-zero classes contribute factor one
    assert closed_form_two_layer(params, np.array([0.7, 0.0, 0.0])) == pytest.approx(
        1.0 / (1.0 + 0.7 ** 0.5), rel=1e-12
    )


@pytest.mark.parametrize(
    "job", [None, "exponential", "deterministic", "erlang3"], ids=lambda j: j or "gamma"
)
def test_heavy_traffic_convergence_for_gamma_and_compound_poisson(job):
    # the heavy tandem as `sweep` evaluates it: omega = (1.5, 0.4) * r(u)**beta.
    # The exact frequencies fall like 1/u, where a cancelling exponent
    # returns rounding noise; with an accurate one the gap to the limit
    # falls like 1/u up to u = 1e6
    model = {
        None: CenteredGamma(2.0, 1.5),
        "exponential": CompoundPoisson(1.0, ExponentialJob(1.0)),
        "deterministic": CompoundPoisson(1.0, DeterministicJob(1.0)),
        "erlang3": CompoundPoisson(1.0, ErlangJob(3, 2.0)),
    }[job]
    configs = Path(__file__).resolve().parent.parent / "configs"
    spec = load_network(configs / "tandem2_heavy.network.json")
    us = [10.0**k for k in range(1, 7)]
    rows = convergence_study(
        spec, partition_rates(spec), model, "heavy", [np.array([1.5, 0.4])], us
    )
    values = np.array([r["exact_scaled"] for r in rows])
    assert np.all((values > 0.0) & (values <= 1.0))
    slope = np.polyfit(np.log(us), np.log([r["gap"] for r in rows]), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.05)


def test_limit_refuses_a_scaled_frequency_outside_the_float_range():
    # one class with fractions (1, 1e-4): the limit scales omega_2 by
    # 1e-4**beta, which leaves the normal float range as alpha -> 1
    spec = tandem_spec([RateFunction.monomial(1.0, -1.0), RateFunction.monomial(1e-4, -1.0)])
    part = partition_rates(spec)
    lost = "scaled frequency of node 2 underflows to {} in the limit: omega_2 = 1, fraction_2**beta = {}"
    with pytest.raises(ScalingRangeError, match=f"^{re.escape(lost.format(0, 0))}$"):
        joint_lst_limit(spec, part, TailPair(1.01, 0.5), [0.0, 1.0])  # beta = 100: 1e-400 is 0
    subnormal = lost.format("(\\S+)", "(\\S+)").replace("**", r"\*\*")
    with pytest.raises(ScalingRangeError) as err:
        joint_lst_limit(spec, part, TailPair(1.0 + 1.0 / 77.0, 0.5), [0.0, 1.0])  # 1e-308 keeps few digits
    to, factor = re.fullmatch(subnormal, str(err.value)).groups()
    assert to == factor and 0.0 < float(to) < np.finfo(float).tiny
    # a frequency of 0 is not scaled, so it loses nothing
    assert 0.0 < joint_lst_limit(spec, part, TailPair(1.01, 0.5), [1.0, 0.0]).value < 1.0
    # a reference 1e4 times slower makes fraction_1 = 1e4, and 1e4**100 overflows
    # (and without a warning); there node 2 is scaled by 1 and is kept
    slow = rescaled_reference(part, 1, 1e-4)
    overflow = "^scaled frequency of node 1 overflows in the limit: omega_1 = 0.5, fraction_1\\*\\*beta = inf$"
    with pytest.raises(ScalingRangeError, match=overflow):
        joint_lst_limit(spec, slow, TailPair(1.01, 0.5), [0.5, 1.0])
    assert 0.0 < joint_lst_limit(spec, slow, TailPair(1.01, 0.5), [0.0, 1.0]).value < 1.0


def test_limit_scaling_takes_one_rule_on_and_off_its_fast_path(monkeypatch):
    # a frequency vector or grid whose nonzero scaled entries are all normal
    # floats takes one multiply by the kept fraction powers, zero entries
    # included; every other goes through as_omega and _scaled_frequency, a
    # grid once as a whole, with the same bits and messages
    rng = np.random.default_rng(149)
    cases = [(random_spec(rng, int(n)), random_tail(rng)) for n in (1, 2, 9, 30)]
    cases.append((tandem_spec([RateFunction.monomial(1.0, -1.0), RateFunction.monomial(1e-4, -1.0)]), TailPair(1.02, 0.5)))
    scalings = []
    scaled_frequency = limit._scaled_frequency
    monkeypatch.setattr(limit, "_scaled_frequency", lambda *args: scalings.append(1) or scaled_frequency(*args))
    for spec, tail in cases:
        part = partition_rates(spec)
        for shape, zeros in (((spec.n,), False), ((spec.n,), True), ((4, spec.n), False), ((4, spec.n), True)):
            w = rng.uniform(0.05, 2.5, shape) * (rng.random(shape) < 0.5 if zeros else 1.0)
            scalings.clear()
            got = joint_lst_limit(spec, part, tail, w)
            assert not scalings
            with monkeypatch.context() as m:
                m.setattr(RateClassPartition, "fraction_power", lambda self, beta: None)
                want = joint_lst_limit(spec, part, tail, w)
            assert len(scalings) == 1  # a grid that only the fast test refuses is scaled once
            assert np.array_equal(got.value, want.value) and np.array_equal(got.factor_values, want.factor_values)
    spec, tail = cases[0][0], TailPair(1.5, 0.7)
    part = partition_rates(spec)
    w = np.ones(spec.n)
    for omega, message in (
        (np.ones(spec.n + 1), f"^frequency vector must have length {spec.n}, got shape \\({spec.n + 1},\\)$"),
        (np.where(np.arange(spec.n) == 0, np.nan, w), "^frequency vector has non-finite entries$"),
        (np.where(np.arange(spec.n) == 0, np.inf, w), "^frequency vector has non-finite entries$"),
        (np.where(np.arange(spec.n) == 0, -1.0, w), "^frequency vector must be componentwise nonnegative$"),
    ):
        with pytest.raises(ValueError, match=message):
            joint_lst_limit(spec, part, tail, omega)
    # fractions above 1 (a reference 1e4 times slower) never take the fast path
    slow = rescaled_reference(part, 1, 1e-4)
    assert slow.fraction_power(tail.beta) is None and part.fraction_power(tail.beta) is not None
    assert 0.0 < joint_lst_limit(spec, slow, tail, w).value <= 1.0
