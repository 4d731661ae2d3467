"""The package's one angle fold."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from qwgeom import zak
from qwgeom.utils import PI_PIN_TOL, TWO_PI, fold_angle

_ULP = math.ulp(math.pi)
_SIGN = st.sampled_from((-1.0, 1.0))

# Any finite float, plus the points where the fold has to decide: +-pi a
# few ulp apart, +-pi within and just outside the pin, and odd multiples
# of pi.
values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda s, n: s * math.pi + n * _ULP, _SIGN,
              st.integers(-8, 8)),
    st.builds(lambda s, d: s * math.pi + d, _SIGN,
              st.floats(-2.0 * PI_PIN_TOL, 2.0 * PI_PIN_TOL)),
    st.builds(lambda n: (2 * n + 1) * math.pi, st.integers(-10**6, 10**6)),
)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _check_fold(x: float, y: float) -> None:
    assert -math.pi < y <= math.pi
    # y equals x modulo the float 2 pi the fold reduces by, to rounding
    # (or to the pin); exact rational arithmetic, whatever |x| is.
    offset = (Fraction(x) - Fraction(y)) % Fraction(TWO_PI)
    assert min(offset, Fraction(TWO_PI) - offset) <= PI_PIN_TOL + _ULP
    if min(abs(x - math.pi), abs(x + math.pi)) < PI_PIN_TOL:
        assert _bits(y) == _bits(np.pi)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(x=values)
@example(x=math.pi)
@example(x=-math.pi)
@example(x=-math.pi + 1e-13)
@example(x=3.0 * math.pi)
@example(x=-0.0)
@example(x=1e300)
def test_fold_angle_scalar(x):
    y = fold_angle(x)
    assert type(y) is float
    _check_fold(x, y)
    assert _bits(fold_angle(np.float64(x))) == _bits(y)
    assert _bits(fold_angle(np.array(x))) == _bits(y)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(x=arrays(np.float64, array_shapes(min_dims=0, max_dims=3, max_side=4),
                elements=values))
def test_fold_angle_array_is_the_scalar_fold_elementwise(x):
    y = fold_angle(x)
    assert isinstance(y, np.ndarray) and y.shape == x.shape
    for xi, yi in zip(x.ravel().tolist(), y.ravel().tolist()):
        assert _bits(yi) == _bits(fold_angle(xi))
        _check_fold(xi, yi)


def test_fold_angle_pins_pi_and_nothing_else():
    assert fold_angle(-math.pi) == fold_angle(math.pi) == math.pi
    assert fold_angle(-math.pi + 0.9 * PI_PIN_TOL) == math.pi
    assert fold_angle(math.pi - 0.9 * PI_PIN_TOL) == math.pi
    assert fold_angle(-math.pi + 2.0 * PI_PIN_TOL) < -math.pi + 3.0 * PI_PIN_TOL
    assert fold_angle(math.pi - 2.0 * PI_PIN_TOL) < math.pi - PI_PIN_TOL
    assert fold_angle(7) == 7 - TWO_PI


def test_zak_array_fold_is_the_one_fold():
    assert zak.fold_angle_array is fold_angle
