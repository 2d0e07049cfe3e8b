import copy
import pickle
import re
from dataclasses import fields

import numpy as np
import pytest

from levynet import (
    Brownian,
    NetworkSpec,
    RateClassPartition,
    RateFunction,
    RoutingMatrix,
    StructuralError,
    TailPair,
    joint_lst_exact,
    joint_lst_limit,
    load_network,
    partition_rates,
    starred_sets,
)
from levynet.network import ClassLayout, ClassRates, first_rise

from conftest import CONFIGS, random_spec, rescaled_reference, seeded_and_shipped_specs, tandem_spec


def test_figure1_classes_and_fractions(figure1_spec):
    part = partition_rates(figure1_spec)
    assert part.classes == ((1, 2, 3), (4, 5, 6))
    assert part.anchors == (1, 4)
    assert part.class_of == (1, 1, 1, 2, 2, 2)
    assert np.allclose(part.fractions, [1.0, 0.4, 0.1, 0.5, 1.0, 0.25], rtol=1e-15, atol=0)
    # reference rates are the fastest member of each class: nodes 1 and 5
    assert part.reference_rates[0].terms == ((10.0, 2.0),)
    assert part.reference_rates[1].terms == ((4.0, 1.0),)


def test_figure1_starred_sets(figure1_spec, figure1_partition):
    expected = {
        1: ({1}, {2}),
        2: ({2}, {3}),
        3: ({3}, set()),
        4: ({4, 5, 6}, set()),
        5: ({5, 6}, set()),
        6: ({6}, set()),
    }
    for j, (fronts, children) in expected.items():
        got = starred_sets(figure1_spec, figure1_partition, j)
        assert got == (fronts, children)


def test_decoupled_tandem_singletons():
    n = 5
    spec = tandem_spec([RateFunction.monomial(1.0, n - j) for j in range(1, n + 1)])
    part = partition_rates(spec)
    assert part.m == n
    assert part.classes == tuple((j,) for j in range(1, n + 1))
    assert np.all(part.fractions == 1.0)
    for j in range(1, n + 1):
        assert starred_sets(spec, part, j) == ({j}, set())


def test_interval_property_and_anchor_recursion():
    rng = np.random.default_rng(17)
    for _ in range(50):
        spec = random_spec(rng, int(rng.integers(2, 11)))
        part = partition_rates(spec)
        covered = [i for cls in part.classes for i in cls]
        assert covered == list(range(1, spec.n + 1))
        assert part.anchors[0] == 1
        for k in range(1, part.m):
            assert part.anchors[k] == part.anchors[k - 1] + len(part.classes[k - 1])
        assert np.all(part.fractions > 0.0) and np.all(part.fractions <= 1.0)


def test_front_matrix_rows_are_the_starred_fronts(figure1_spec, figure1_partition):
    rng = np.random.default_rng(19)
    cases = [(figure1_spec, figure1_partition)]
    for n in (1, 2, 7, 15):
        spec = random_spec(rng, n)
        cases.append((spec, partition_rates(spec)))
    for spec, part in cases:
        assert not part.front_matrix.flags.writeable
        for j in range(1, spec.n + 1):
            row = part.front_matrix[j - 1]
            assert set(row.tolist()) <= {0.0, 1.0}
            assert frozenset((np.flatnonzero(row) + 1).tolist()) == starred_sets(spec, part, j)[0]


def _assert_derived_partition(spec, part):
    """Every derived field of part equals a restatement from its inputs."""
    assert part.spec is spec
    class_of = [next(k for k, c in enumerate(part.classes, start=1) if i in c) for i in range(1, spec.n + 1)]
    assert part.class_of == tuple(class_of)
    same_class = np.equal.outer(class_of, class_of)
    assert np.array_equal(part.front_matrix, np.where(same_class, spec.front_matrix, 0.0))
    fresh = ClassLayout(spec.phat, [c[-1] - 1 for c in part.classes], np.where(same_class, spec.front_matrix, 0.0))
    for name, value in vars(fresh).items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(getattr(part.layout, name), value), name
    # the factor formula reads the within-class pairs off layout.inner
    assert first_rise(part.fractions / spec.phat, part.layout.inner) == _first_rise(part, spec.phat)
    for obj in (part, part.layout):
        arrays = [v for v in vars(obj).values() if isinstance(v, np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)


def test_partition_structure_restates_the_definitions():
    for spec in seeded_and_shipped_specs(41):
        _assert_derived_partition(spec, partition_rates(spec))


def test_spec_and_partition_round_trip_through_pickle_and_deepcopy():
    for spec in seeded_and_shipped_specs(43):
        part = partition_rates(spec)
        spec.class_rates(2.0), part.fraction_power(2.0), part.class_rates.quadratic_terms(0.5)  # fill the memos
        assert "sum_matrix" in vars(part.class_rates)
        for again_spec, again_part in (pickle.loads(pickle.dumps((spec, part))), copy.deepcopy((spec, part))):
            assert again_spec == spec and hash(again_spec) == hash(spec) and again_spec.parent == spec.parent
            assert again_part == part and hash(again_part) == hash(part) and again_part.spec is again_spec
            assert again_part.classes == part.classes and again_part.class_of == part.class_of
            for obj, again in ((spec, again_spec), (part, again_part), (part.layout, again_part.layout)):
                for name, value in vars(obj).items():
                    if isinstance(value, np.ndarray):
                        assert np.array_equal(getattr(again, name), value), name
            # a copy is rebuilt from its inputs: every array is read-only, as on
            # construction, and the memos start empty
            assert again_spec._memo == (None, None) and not again_part._fraction_powers
            assert not again_part.class_rates._quadratic and "sum_matrix" not in vars(again_part.class_rates)
            copies = (again_spec, again_spec.routing, again_spec.layout, again_part, again_part.layout)
            for obj in (*copies, again_part.class_rates, again_spec.class_rates(2.0)):
                for name, value in vars(obj).items():
                    if isinstance(value, np.ndarray):
                        assert not value.flags.writeable, (type(obj).__name__, name)


def test_derived_fields_are_not_constructor_arguments(figure1_spec, figure1_partition):
    # passing any of these once let a value contradict the inputs: the
    # unmasked spec.front_matrix, for one, changed the figure-1 limit, and
    # classes that left out node 4 were accepted
    spec, part = figure1_spec, figure1_partition
    with pytest.raises(TypeError, match="argument 'n'"):
        RoutingMatrix(spec.routing.p, n=spec.n)
    for name in ("phat", "parent", "front_matrix", "rate_coeffs", "rate_exps", "layout"):
        with pytest.raises(TypeError, match=f"argument '{name}'"):
            NetworkSpec(spec.routing, spec.rates, **{name: getattr(spec, name)})
    for name in ("classes", "fractions", "front_matrix", "class_of", "layout"):
        with pytest.raises(TypeError, match=f"argument '{name}'"):
            RateClassPartition(spec, part.reference_rates, **{name: getattr(part, name)})
    # the within-class rate ordering is checked where the limit reads it, not stored
    assert "rising_node" not in {f.name for f in fields(RateClassPartition)}


def test_constructor_inputs_are_pinned():
    inputs = {cls: [f.name for f in fields(cls) if f.init] for cls in (RoutingMatrix, NetworkSpec, RateClassPartition)}
    assert inputs == {
        RoutingMatrix: ["p"],
        NetworkSpec: ["routing", "rates"],
        RateClassPartition: ["spec", "reference_rates"],
    }


def test_references_must_match_the_classes(figure1_spec, figure1_partition):
    # figure 1 has classes (1, 2, 3) and (4, 5, 6), growing like u**2 and u**1;
    # the split ((1, 2, 3), (4, 5), (6,)) and swapped references were accepted once
    spec, (r1, r2) = figure1_spec, figure1_partition.reference_rates
    wrong = {
        "expected 2 reference rates, one per rate class, got 1": (r1,),
        "expected 2 reference rates, one per rate class, got 3": (r1, spec.rates[4], spec.rates[5]),
        "reference rate 1 grows like u**1.0, but class 1 (nodes [1, 2, 3]) like u**2.0": (r2, r1),
        "reference rate 2 grows like u**1.5, but class 2 (nodes [4, 5, 6]) like u**1.0": (
            r1,
            RateFunction(((4.0, 1.5), (4.0, 1.0))),
        ),
    }
    for text, refs in wrong.items():
        with pytest.raises(StructuralError, match=f"^{re.escape(text)}$"):
            RateClassPartition(spec, refs)
    # a lower-order term of the reference leaves the fractions as they are
    slower = RateFunction(((4.0, 1.0), (7.0, 0.5)))
    assert RateClassPartition(spec, (r1, slower)).fractions.tolist() == figure1_partition.fractions.tolist()


def test_partition_invariance_under_common_monomial():
    # multiplying every rate by the same positive monomial changes nothing
    rng = np.random.default_rng(23)
    spec = random_spec(rng, 7)
    part = partition_rates(spec)
    bumped = [RateFunction(tuple((c * 3.5, e + 1.25) for c, e in r.terms)) for r in spec.rates]
    from levynet import build_network

    spec2 = build_network(spec.routing, bumped)
    part2 = partition_rates(spec2)
    assert part2.classes == part.classes
    assert np.allclose(part2.fractions, part.fractions, rtol=1e-14, atol=0)


def test_reference_rescaling_covariance():
    rng = np.random.default_rng(29)
    spec = random_spec(rng, 6)
    part = partition_rates(spec)
    c = 2.75
    scaled = rescaled_reference(part, 1, c)
    ref_coeff = part.reference_rates[0].leading[0]
    members = part.classes[0]
    for i in members:
        assert scaled.fractions[i - 1] == spec.rates[i - 1].leading[0] / (c * ref_coeff)
        assert scaled.fractions[i - 1] == pytest.approx(part.fractions[i - 1] / c, rel=1e-15)
    others = [i for cls in part.classes[1:] for i in cls]
    for i in others:
        assert scaled.fractions[i - 1] == part.fractions[i - 1]


def test_growing_rate_rejected():
    spec_rates = [RateFunction.monomial(1.0, 1.0), RateFunction.monomial(1.0, 2.0)]
    spec = tandem_spec(spec_rates)
    with pytest.raises(StructuralError):
        partition_rates(spec)


def test_starred_sets_range(figure1_spec, figure1_partition):
    with pytest.raises(IndexError):
        starred_sets(figure1_spec, figure1_partition, 7)


def _layout_from_classes(classes, phat):
    """The class layout restated from the classes, one list per field."""
    n = len(phat)
    ends = [c[-1] - 1 for c in classes]
    inner = [i - 1 for c in classes for i in c[:-1]]
    return dict(
        ends=ends,
        inner=inner,
        sum_at=[[n + j if j in ends else j + 1 for j in range(n)], list(range(n))],
        order=[i - 1 for c in classes for i in (c[-1], *c[:-1])],
        starts=[c[0] - 1 for c in classes],
    )


def _sum_matrix_from_classes(classes, front, phat, r):
    """G restated: the rows of front * phat, then for each node the sum, from
    its class's end back to the next node, of (r_{l-1}/phat_{l-1} - r_l/phat_l)
    times row l of front * phat, one term at a time; 0 at a class end."""
    rows = front * phat
    kappa = np.zeros_like(rows)
    for c in classes:
        for j in range(c[0] - 1, c[-1] - 1):
            for l in range(c[-1] - 1, j, -1):
                kappa[j] = kappa[j] + (r[l - 1] / phat[l - 1] - r[l] / phat[l]) * rows[l]
    return np.concatenate((rows, kappa))


def _layout_specs():
    rng = np.random.default_rng(211)
    specs = [random_spec(rng, int(n)) for n in (1, 2, 3, *rng.integers(4, 60, 10))]
    singles = [RateFunction.monomial(3.0 - 0.1 * j, 2.0 - 0.05 * j) for j in range(7)]
    return specs + [tandem_spec(singles)]  # seven singleton classes


def test_class_layouts_are_read_only_and_restate_the_classes():
    for spec in _layout_specs():
        part = partition_rates(spec)
        one_class = (tuple(range(1, spec.n + 1)),)
        for lay, classes, r, front in (
            (spec.layout, one_class, spec.rate_vector(2.0), spec.front_matrix),
            (part.layout, part.classes, part.fractions, part.front_matrix),
        ):
            assert lay.front is front
            want = _layout_from_classes(classes, spec.phat)
            fresh = ClassLayout(spec.phat, want["ends"], lay.front)
            for name, value in want.items():
                assert getattr(lay, name).tolist() == value, name
            for name in ("ends", "inner", "front", "sum_at", "order", "starts"):
                stored = getattr(lay, name)
                assert not stored.flags.writeable, name
                assert np.array_equal(stored, getattr(fresh, name)), name
            # G: the front sums, then each node's kappa as a reverse running
            # sum within its class, built once per ClassRates, read-only
            rates = ClassRates(lay, r)
            matrix = rates.sum_matrix
            assert np.array_equal(matrix, _sum_matrix_from_classes(classes, lay.front, spec.phat, r))
            assert rates.sum_matrix is matrix and not matrix.flags.writeable
            assert not matrix[spec.n + lay.ends].any()


def test_class_layouts_are_built_once(monkeypatch):
    rng = np.random.default_rng(223)
    spec = random_spec(rng, 30)
    part = partition_rates(spec)
    layouts = (spec.layout, part.layout)
    built = []
    post_init = ClassLayout.__post_init__
    monkeypatch.setattr(ClassLayout, "__post_init__", lambda self: built.append(post_init(self)))
    w = rng.uniform(0.05, 2.0, spec.n)
    joint_lst_exact(spec, Brownian(1.0), w, 2.0)
    joint_lst_limit(spec, part, TailPair(1.5, 0.7), w)
    assert built == []
    assert (spec.layout, part.layout) == layouts
    # a rescaled partition derives its own layout, equal to the one it came from
    rescaled = rescaled_reference(part, 1, 2.5)
    joint_lst_limit(spec, rescaled, TailPair(2.0, 0.7), w)
    assert len(built) == 1
    for name in ("ends", "inner", "front", "sum_at", "order", "starts"):
        assert np.array_equal(getattr(rescaled.layout, name), getattr(part.layout, name)), name
    # and every other derived field as a fresh derivation would
    _assert_derived_partition(spec, rescaled)


def _first_rise(part, phat) -> int:
    ratio = part.fractions / phat
    same = [part.class_of[j - 1] == part.class_of[j] for j in range(1, len(phat))]
    return next((j for j in range(1, len(phat)) if same[j - 1] and ratio[j] > ratio[j - 1]), 0)


def _assert_limit_refuses_exactly_at(spec, part, tail, w, j):
    """joint_lst_limit raises the rate-ordering StructuralError naming node j, or returns a value when j is 0."""
    if j:
        text = f"r/phat rises from node {j} to node {j + 1}: rate ordering violated within class"
        with pytest.raises(StructuralError) as err:
            joint_lst_limit(spec, part, tail, w)
        assert str(err.value) == text
    else:
        assert 0.0 < joint_lst_limit(spec, part, tail, w).value <= 1.0


def test_rescaled_partition_recomputes_the_ordering_check():
    rng = np.random.default_rng(227)
    # node 2 outgrows node 1 within the first class, node 4 node 3 within the second
    rises = [
        tandem_spec([RateFunction.monomial(c, e) for c, e in [(1.0, 2), (2.0, 2), (1.0, 1), (3.0, 1)]]),
        tandem_spec([RateFunction.monomial(c, 1.0) for c in (1.0, 2.0, 0.5)]),
    ]
    refused = set()
    for spec in rises + [random_spec(rng, int(rng.integers(2, 30))) for _ in range(8)]:
        part = partition_rates(spec)
        tail = TailPair(1.5, 0.7)
        w = rng.uniform(0.05, 2.0, spec.n)
        for _ in range(4):
            part = rescaled_reference(part, int(rng.integers(1, part.m + 1)), rng.uniform(0.2, 5.0))
            j = _first_rise(part, spec.phat)
            _assert_limit_refuses_exactly_at(spec, part, tail, w, j)
            refused.add(bool(j))
    assert refused == {False, True}
    for spec in rises:
        _assert_limit_refuses_exactly_at(spec, partition_rates(spec), TailPair(1.5, 0.7), np.ones(spec.n), 1)


def test_equal_inputs_compare_and_hash_alike():
    for path in sorted(CONFIGS.glob("*.network.json")):
        a, b = (load_network(path) for _ in range(2))
        pa, pb = partition_rates(a), partition_rates(b)
        assert a is not b and pa is not pb
        rebuilt = RateClassPartition(b, pb.reference_rates)
        for x, y in ((a.routing, b.routing), (a, b), (pa, pb), (pa, rebuilt)):
            assert x == y and hash(x) == hash(y)
        assert len({pa, pb, rebuilt}) == 1
        other = RateClassPartition(a, tuple(r.scaled(2.0) for r in pa.reference_rates))
        assert other != pa and pa != other and pa != a
        assert rescaled_reference(pa, 1, 2.0) != pa
    # a routing entry of -0.0 equals 0.0, so the matrices hash alike too
    p = a.routing.p.copy()
    p[p == 0.0] = -0.0
    signed = RoutingMatrix(p)
    assert signed == a.routing and hash(signed) == hash(a.routing)
