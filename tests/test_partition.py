import numpy as np
import pytest

from levynet import RateFunction, StructuralError, partition_rates, starred_sets

from conftest import random_spec, tandem_spec


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
        assert part.class_of == tuple(part.class_index(i) for i in range(1, spec.n + 1))


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
    scaled = part.with_rescaled_reference(1, c)
    members = part.classes[0]
    for i in members:
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
