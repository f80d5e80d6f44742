"""The Euclidean half-angle formula on single triangles.

The package has one double-precision copy of the formula,
``kernels.tri_angles``; these cases call it one row at a time.  A side
triple that is not a triangle has NaN angles there, and ``build_metric``
refuses a development that contains one.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyforge import catalog, kernels, surface
from polyforge.errors import MetricError


def _angles(a, b, c):
    return kernels.tri_angles([[a, b, c]])[0]


def test_near_degenerate_angle_sum():
    ang = _angles(1.0, 1.0, 1.9)
    assert abs(ang.sum() - math.pi) <= 1e-12


def test_equilateral():
    alpha, beta, gamma = _angles(2.5, 2.5, 2.5)
    assert alpha == pytest.approx(math.pi / 3, abs=1e-15)
    assert beta == pytest.approx(alpha, abs=1e-15)
    assert gamma == pytest.approx(alpha, abs=1e-15)


def test_right_triangle():
    alpha, beta, _ = _angles(5.0, 4.0, 3.0)
    assert alpha == pytest.approx(math.pi / 2, abs=1e-14)
    assert math.sin(beta) == pytest.approx(4.0 / 5.0, abs=1e-14)


def test_invalid_sides_raise():
    # flat, negative and zero sides have no angles ...
    for sides in ((1.0, 1.0, 2.0), (1.0, -1.0, 1.0), (0.0, 1.0, 1.0)):
        assert np.isnan(_angles(*sides)).all()
        # ... so a development made of them is refused as a metric
        with pytest.raises(MetricError):
            surface.build_metric(catalog.doubly_covered_triangle(*sides))


@given(
    st.floats(0.05, 10.0),
    st.floats(0.05, 10.0),
    st.floats(0.05, 10.0),
)
def test_angle_sum_property(a, b, c):
    if a >= b + c or b >= c + a or c >= a + b:
        return
    ang = _angles(a, b, c)
    assert abs(ang.sum() - math.pi) <= 1e-10
    assert ang.min() > 0.0
