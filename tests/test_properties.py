"""Property-based route agreement over random rational parameters.

Bounded families: the three exact routes agree bit for bit, and the Hahn
closed form equals the expansion, on alpha + beta = -1 too.  Infinite
supports: the exact closed form equals the expansion, Charlier gives n/mu,
and the factorial-moment direct and difference routes equal the expansion
bit for bit, Meixner mu up to 999/1000 included.
Every value is positive, and zero exactly at degree 0.  The integer kernel
of the Hahn recurrence coefficients equals their Fraction form, and so do the
integer monomial rows, which stay in lowest terms.  Examples are drawn
deterministically, so the suite stays reproducible.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dopfisher.families import Charlier, Hahn, Kravchuk, Meixner
from dopfisher.fisher import (
    fisher_closed,
    fisher_difference,
    fisher_direct,
    fisher_expansion,
)

from oracles import hahn_recurrence, recurrence_monomials

F = Fraction

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)


def rationals(low, high, max_denominator=12):
    """Rationals strictly inside (low, high), small denominators by default."""
    return st.fractions(min_value=low, max_value=high,
                        max_denominator=max_denominator).filter(lambda v: low < v < high)


@st.composite
def bounded_cases(draw):
    N = draw(st.integers(min_value=1, max_value=14))
    if draw(st.booleans()):
        fam = Kravchuk(draw(rationals(0, 1)), N)
    else:
        fam = Hahn(draw(rationals(-1, 5)), draw(rationals(-1, 5)), N)
    return fam, draw(st.integers(min_value=0, max_value=fam.max_degree()))


@st.composite
def infinite_cases(draw):
    if draw(st.booleans()):
        fam = Charlier(draw(rationals(0, 20)))
    else:
        fam = Meixner(draw(rationals(0, 10)), draw(rationals(0, 1)))
    return fam, draw(st.integers(min_value=0, max_value=16))


def assert_sign(value, n):
    assert value == 0 if n == 0 else value > 0


@PROPERTY
@given(bounded_cases())
def test_bounded_exact_routes_agree(case):
    fam, n = case
    value = fisher_expansion(fam, n)
    assert fisher_direct(fam, n) == fisher_difference(fam, n) == value
    assert_sign(value, n)


@PROPERTY
@given(infinite_cases())
def test_infinite_closed_form_equals_expansion(case):
    fam, n = case
    value = fisher_expansion(fam, n)
    assert fisher_closed(fam, n) == value
    if isinstance(fam, Charlier):
        assert value == F(n) / fam.mu
    assert_sign(value, n)


@st.composite
def moment_cases(draw):
    if draw(st.booleans()):
        fam = Charlier(draw(rationals(0, 30, 100)))
    else:
        mu = draw(st.fractions(min_value=F(1, 1000), max_value=F(999, 1000),
                               max_denominator=1000))
        fam = Meixner(draw(rationals(0, 12, 100)), mu)
    return fam, draw(st.integers(min_value=0, max_value=20))


@PROPERTY
@given(moment_cases())
def test_infinite_moment_routes_equal_expansion(case):
    fam, n = case
    value = fisher_expansion(fam, n)
    assert fisher_direct(fam, n) == fisher_difference(fam, n) == value


@PROPERTY
@given(st.integers(min_value=2, max_value=14), st.data())
def test_hahn_alpha_plus_beta_minus_one(N, data):
    # the line alpha + beta = -1, where reduced_norm(0) is a removable 0/0
    alpha = data.draw(rationals(-1, 0))
    fam = Hahn(alpha, -1 - alpha, N)
    n = data.draw(st.integers(min_value=0, max_value=N - 1))
    value = fisher_expansion(fam, n)
    assert fisher_direct(fam, n) == fisher_difference(fam, n) == value
    assert_sign(value, n)
    # the closed form's b2, d2 and 5F4s carry removable 0/0s here
    assert fisher_closed(fam, n) == value


@PROPERTY
@given(rationals(-1, 50), rationals(-1, 50), st.integers(min_value=1, max_value=30))
def test_hahn_closed_form_equals_expansion(alpha, beta, N):
    fam = Hahn(alpha, beta, N)
    for n in range(N):
        assert fisher_closed(fam, n) == fisher_expansion(fam, n)


@PROPERTY
@given(rationals(-1, 50, 1000), st.data(), st.integers(min_value=1, max_value=30))
def test_hahn_integer_kernel_equals_fraction_form(alpha, data, N):
    # beta either free or on the alpha + beta = -1 line when that is in range
    on_line = alpha < 0 and data.draw(st.booleans())
    beta = -1 - alpha if on_line else data.draw(rationals(-1, 50, 1000))
    fam = Hahn(alpha, beta, N)
    for m in range(N):
        assert (fam.recurrence_a(m), fam.recurrence_b(m)) == hahn_recurrence(fam, m)


@st.composite
def any_family_cases(draw):
    tag = draw(st.sampled_from(["charlier", "meixner", "kravchuk", "hahn"]))
    if tag == "charlier":
        fam = Charlier(draw(rationals(0, 20)))
    elif tag == "meixner":
        fam = Meixner(draw(rationals(0, 10)), draw(rationals(0, 1)))
    elif tag == "kravchuk":
        fam = Kravchuk(draw(rationals(0, 1)), draw(st.integers(min_value=1, max_value=30)))
    else:
        fam = Hahn(draw(rationals(-1, 5)), draw(rationals(-1, 5)),
                   draw(st.integers(min_value=1, max_value=30)))
    top = 25 if fam.max_degree() is None else min(25, fam.max_degree())
    return fam, draw(st.integers(min_value=0, max_value=top))


@PROPERTY
@given(any_family_cases())
def test_monomial_rows_equal_fraction_recurrence(case):
    fam, n = case
    assert fam.poly_coeffs(n) == recurrence_monomials(fam, n)
    # every stored row is in lowest terms: without the gcd per row, the
    # factors of each step's common denominator would pile up degree by degree
    for m in range(n + 1):
        nums, den = fam.poly_row(m)
        assert den > 0 and nums[-1] == den and math.gcd(den, *nums) == 1
