"""The exact scaling rule: values as integers over one common denominator."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from netmatch.scalars import check_tolerance, integer_ratios

_EXACT = (st.integers(-2**80, 2**80)
          | st.fractions(max_denominator=10**30)
          | st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(_EXACT, max_size=12))
@example(values=[])
@example(values=[5e-324, 2.2250738585072014e-308, 2.0**1000, 1.7976931348623157e308])
@example(values=[Fraction(1, 3), 0.1, 2**70, -5e-324, Fraction(-7, 2**1074)])
@example(values=[Fraction(1, 6), Fraction(1, 10), Fraction(1, 15), 0.5])
def test_integer_ratios_is_exact_over_the_lcm(values):
    numerators, den = integer_ratios(values)
    assert len(numerators) == len(values)
    assert [Fraction(n, den) for n in numerators] == [Fraction(v) for v in values]
    assert den == math.lcm(*(Fraction(v).denominator for v in values))
    assert all(type(n) is int for n in numerators) and type(den) is int


@pytest.mark.parametrize("tol, value", [
    (np.float32(0.5), 0.5), (np.float64(0.25), 0.25), (np.int64(2), 2), (np.int64(0), 0)])
def test_a_numpy_tolerance_is_checked_as_its_python_value(tol, value):
    checked = check_tolerance(tol)
    assert type(checked) is type(value) and checked == value
