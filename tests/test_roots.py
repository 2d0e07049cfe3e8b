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
