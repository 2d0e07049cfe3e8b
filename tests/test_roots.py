import re

import pytest
from hypothesis import given, strategies as st

from levynet import RootFindingError
from levynet.roots import invert_increasing


def test_zero_maps_to_zero():
    assert invert_increasing(lambda s: 2 * s + s**2, 0.0, lambda s: 2 + 2 * s, 0.0) == 0.0


def test_quadratic_root():
    # s + s^2 = 2 at s = 1
    s = invert_increasing(lambda s: s + s**2, 2.0, lambda s: 1 + 2 * s, 2.0)
    assert s == pytest.approx(1.0, rel=1e-12)


def test_negative_value_rejected():
    with pytest.raises(ValueError):
        invert_increasing(lambda s: s, -1.0, lambda s: 1.0, 1.0)


def test_nonconvergence_reports_residual():
    # Newton on s^2 halves s per step: from 1e100 the root s = 1 is about
    # 330 steps away, beyond the 200-step cap
    with pytest.raises(RootFindingError) as err:
        invert_increasing(lambda s: s * s, 1.0, lambda s: 2 * s, 1e100)
    residual = re.fullmatch(r"Newton iteration stopped with residual (\S+) at s = \S+", str(err.value))
    assert residual and float(residual[1]) > 1.0


@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=1.1, max_value=2.0),
)
def test_round_trip(x, a, b, alpha):
    f = lambda s: a * s + b * s**alpha
    df = lambda s: a + b * alpha * s ** (alpha - 1.0)
    s = invert_increasing(f, x, df, x / a)
    assert f(s) == pytest.approx(x, rel=1e-11)


def test_a_step_that_no_longer_moves_s_ends_at_the_looser_tolerance():
    # f(s) = s**p with p = 1e5: next to the root, adjacent floats move f by
    # about p * eps = 1e-11 relative, more than the 1e-12 x tolerance, while
    # a Newton step from there is below half an ulp of s, so the iteration
    # stalls within a few dozen steps
    p = 1e5
    f, df = lambda s: s**p, lambda s: p * s ** (p - 1.0)
    steps = []

    def counted(s):
        steps.append(s)
        return df(s)

    s = invert_increasing(f, 0.1, counted, 1.0)
    assert len(steps) < 100 and s - (f(s) - 0.1) / df(s) == s  # the last step did not move s
    assert 1e-12 * 0.1 < abs(f(s) - 0.1) <= 1e-12  # above the sharp tolerance, within 1e-12 max(1, x)
    # at x = 0.5 the stalled residual is above the looser tolerance too
    steps.clear()
    with pytest.raises(RootFindingError, match="^Newton iteration stopped with residual"):
        invert_increasing(f, 0.5, counted, 1.0)
    assert len(steps) < 100
