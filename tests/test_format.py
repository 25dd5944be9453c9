"""Printed decimals of exact rationals.

``format_scalar`` with the float backend writes an int or Fraction straight
from its numerator and denominator, rounded once to ``dps`` significant
digits with ties away from zero, in ``mpmath.nstr``'s layout.  The oracle
(tests/oracles.py) rounds with the ``decimal`` module instead and lays the
digits out on its own.  With the exact backend it writes ``p/q`` at any
size, against ``str`` with the int-to-str digit limit lifted.  Examples are
drawn deterministically.
"""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dopfisher.sweeps import format_scalar

from oracles import decimal_layout, unlimited_str

F = Fraction

DIGITS_60 = 10 ** 60


def rationals_60():
    """Signed rationals with numerator and denominator up to 60 digits."""
    return st.builds(F, st.integers(min_value=-DIGITS_60, max_value=DIGITS_60),
                     st.integers(min_value=1, max_value=DIGITS_60))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(rationals_60(), st.sampled_from([8, 17, 50, 80]))
@example(F(0), 8)
@example(F(0), 80)
@example(F(-7, 3), 8)
@example(F(-10 ** 40 - 1, 3), 50)
# a carry into a new leading digit: 9.9999999|5 -> 10.0, and 99999999.5 -> 1.0e+8,
# where the carry also crosses the fixed/exponent boundary at dps = 8
@example(F(999999995, 10 ** 8), 8)
@example(F(-999999995, 10 ** 8), 8)
@example(F(199999999, 2), 8)
# a tie is rounded away from zero
@example(F(123456785, 10 ** 8), 8)
@example(F(-123456785, 10 ** 8), 8)
# both sides of the upper boundary, exponent dps-1 (fixed) and dps (exponent)
@example(F(12345678), 8)
@example(F(123456789), 8)
@example(F(10 ** 17 + 1, 3), 17)
@example(F(10 ** 18 + 1, 3), 17)
@example(F(10 ** 50 + 1, 3), 50)
@example(F(10 ** 51 + 1, 3), 50)
@example(F(10 ** 80 + 1, 3), 80)
@example(F(10 ** 81 + 1, 3), 80)
# both sides of the lower boundary min(-(dps//3), -5): exponent -4 (fixed) and
# -5 (exponent) at dps 8 and 17, -15 and -16 at dps 50, -25 and -26 at dps 80
@example(F(1, 3 * 10 ** 3), 8)
@example(F(1, 3 * 10 ** 4), 8)
@example(F(1, 3 * 10 ** 3), 17)
@example(F(1, 3 * 10 ** 4), 17)
@example(F(1, 3 * 10 ** 14), 50)
@example(F(1, 3 * 10 ** 15), 50)
@example(F(1, 3 * 10 ** 24), 80)
@example(F(1, 3 * 10 ** 25), 80)
# a carry across the lower boundary: 9.99999996e-5 (exponent) -> 0.0001 (fixed)
@example(F(999999996, 10 ** 13), 8)
# mpf rounding first, then nstr, printed ...570554e-31 here
@example(F(74814, 392856796580865040572766993422745649), 50)
def test_float_backend_rounds_once_in_nstr_layout(value, dps):
    assert format_scalar(value, "float", dps) == decimal_layout(value, dps)


def test_known_double_rounding_case_is_mended():
    text = format_scalar(F(74814, 392856796580865040572766993422745649), "float", 50)
    assert text.endswith("570553e-31")


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.integers(min_value=-DIGITS_60, max_value=DIGITS_60), st.sampled_from([8, 50]))
def test_ints_print_as_their_fraction(value, dps):
    assert format_scalar(value, "float", dps) == format_scalar(F(value), "float", dps)
    assert format_scalar(value, "exact", dps) == str(value)


def test_digit_strings_longer_than_the_int_str_limit():
    # str() of an int refuses more than 4300 digits by default
    text = format_scalar(F(1, 3), "float", 5000)
    assert text == "0." + "3" * 5000



#: numerator widths either side of 4000, of the interpreter's default
#: int-to-str limit of 4300 digits, and of twice that
WIDE = [3999, 4000, 4001, 4299, 4300, 4301, 8599, 8600, 8601]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(WIDE), st.sampled_from([1, 60] + WIDE), st.booleans(),
       st.randoms(use_true_random=False))
def test_exact_backend_prints_any_width(width, den_width, negative, rnd):
    # the integers are drawn inside the test, since past the limit their
    # repr, which a report of the example would print, raises too
    num = rnd.randrange(10 ** (width - 1), 10 ** width)
    value = F(-num if negative else num, rnd.randrange(10 ** (den_width - 1), 10 ** den_width))
    assert format_scalar(value, "exact", 8) == unlimited_str(value)


@pytest.mark.parametrize("num, den", [(10 ** 4300, 1), (10 ** 4300 - 1, 1), (-(10 ** 4299), 7),
                                      (1, 10 ** 8600), (0, 1)],
                         ids=["1e4300", "1e4300-1", "-1e4299/7", "1/1e8600", "0"])
def test_exact_backend_at_powers_of_ten(num, den):
    # the digit count's bound from the bit length is widest at powers of ten
    value = F(num, den)
    assert format_scalar(value, "exact", 8) == unlimited_str(value)


@pytest.mark.parametrize("den_width", [1, 639, 640, 641])
@pytest.mark.parametrize("width", [639, 640, 641])
def test_exact_backend_under_a_lowered_int_str_limit(width, den_width):
    # str() first, halves only where it refuses, at the lowest limit
    # CPython takes; the integers are drawn inside the test, as in
    # test_exact_backend_prints_any_width, and coprime, so that the
    # fraction keeps both widths
    rnd = random.Random(width * 1000 + den_width)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for sign in (1, -1):
            num = den = 2
            while math.gcd(num, den) != 1:
                num = rnd.randrange(10 ** (width - 1), 10 ** width)
                den = rnd.randrange(10 ** (den_width - 1), 10 ** den_width)
            value = F(sign * num, den)
            assert format_scalar(value, "exact", 8) == unlimited_str(value)
        assert format_scalar(F(1, 3), "float", 700) == "0." + "3" * 700
    finally:
        sys.set_int_max_str_digits(limit)
