"""Property-based route agreement over random rational parameters.

Bounded families: the three exact routes agree bit for bit, and the Hahn
closed form equals the expansion, on alpha + beta = -1 too.  Infinite
supports: the exact closed form equals the expansion, Charlier gives n/mu,
and the factorial-moment direct and difference routes equal the expansion
bit for bit, Meixner mu up to 999/1000 included.
Every value is positive, and zero exactly at degree 0.  The integer kernels
of the Meixner, Kravchuk and Hahn recurrence coefficients equal their
Fraction forms; each family's structure pair equals its form from both
families' recurrences and satisfies the structure relation pointwise, and
its f_m vanishes for every m on the ladder families and for no 2 <= m <= N-2
on Hahn; the values of P_n at any rational points, from the integer
recurrence over their common denominator, equal Horner on the plain Fraction
monomial recurrence; the Delta-walk connection coefficients equal the
Pochhammer and 4F3 forms; the Gram recurrence of ``expansion`` equals the
running-product Fraction sum over the Delta-walk coefficients, and on the
ladder families over the Pochhammer ones; the
per-family factorial moment row equals the textbook moments; the quadrature
row, asked for at any k in any order, sums like Newton's formula from a
difference table; the node values from the difference equation equal
Horner on the Fraction monomial coefficients; the quadrature row met with any
polynomial product, and the sums of ``direct`` and ``difference``, equal
coefficient products met with the oracle's raw moments, on every family; and
the integer Horner kernels of the terminating pFq and the
Hahn 5F4, and the one-reduction Pochhammer product, equal their
term-by-term Fraction forms.  The
cancelled forms that keep the cost set by the degree and not by the lattice
size -- the norm ratio d_0^2/d_n^2 from the recurrence and the Hahn closed
form without its products of length N -- equal the forms written with those
products.  The sweep grid, one Fraction per point, equals start plus the
scaled span, and lands on integers exactly when every point is one.
Examples are drawn deterministically, so the suite stays reproducible.
"""

import math
import operator
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dopfisher import families, fisher
from dopfisher.families import Charlier, Hahn, Kravchuk, Meixner
from dopfisher.fisher import (
    fisher_closed,
    fisher_difference,
    fisher_direct,
    fisher_expansion,
)
from dopfisher.numerics import (
    DenominatorPole,
    NonTerminatingSeries,
    PFQSpec,
    over_common_denominator,
    pochhammer,
    terminating_pfq,
)
from dopfisher.sweeps import linear_grid

from oracles import (
    delta_walk_connection,
    diff_coeffs,
    eval_coeffs,
    factorial_moments,
    hahn_5f4_terms,
    hahn_closed_uncancelled,
    hahn_connection_4f3,
    hahn_recurrence,
    horner_node_values,
    kravchuk_recurrence,
    meixner_recurrence,
    newton_sum,
    norm_ratio_from_norms,
    normalized_moments,
    pochhammer_connection,
    pointwise_value,
    quadrature_sum,
    recurrence_monomials,
    rising,
    running_product_expansion,
    shift_coeffs,
    structure_pair_from_recurrences,
    terminating_pfq_terms,
)

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


def meixner_mu():
    """Meixner mu in [1/1000, 999/1000], denominators up to 1000."""
    return st.fractions(min_value=F(1, 1000), max_value=F(999, 1000), max_denominator=1000)


@st.composite
def moment_cases(draw):
    if draw(st.booleans()):
        fam = Charlier(draw(rationals(0, 30, 100)))
    else:
        fam = Meixner(draw(rationals(0, 12, 100)), draw(meixner_mu()))
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
@given(rationals(-1, 50, 1000), rationals(-1, 50, 1000), st.integers(min_value=2, max_value=12))
def test_hahn_closed_form_equals_uncancelled_form(alpha, beta, N):
    # off alpha + beta = -1, where the uncancelled form has its removable 0/0s
    if alpha + beta == -1:
        beta += F(1, 2)
    fam = Hahn(alpha, beta, N)
    for n in range(1, N):
        assert fam.closed_form(n) == hahn_closed_uncancelled(alpha, beta, N, n)


@PROPERTY
@given(rationals(-1, 50, 1000), st.data(), st.integers(min_value=1, max_value=30))
def test_hahn_integer_kernel_equals_fraction_form(alpha, data, N):
    # beta either free or on the alpha + beta = -1 line when that is in range
    on_line = alpha < 0 and data.draw(st.booleans())
    beta = -1 - alpha if on_line else data.draw(rationals(-1, 50, 1000))
    fam = Hahn(alpha, beta, N)
    for m in range(N):
        assert (fam.recurrence_a(m), fam.recurrence_b(m)) == hahn_recurrence(fam, m)


@PROPERTY
@given(rationals(0, 50, 1000), meixner_mu())
def test_meixner_integer_recurrence_equals_fraction_form(gamma, mu):
    fam = Meixner(gamma, mu)
    for m in range(30):
        assert (fam.recurrence_a(m), fam.recurrence_b(m)) == meixner_recurrence(fam, m)


@PROPERTY
@given(rationals(0, 1, 1000), st.integers(min_value=1, max_value=60))
def test_kravchuk_integer_recurrence_equals_fraction_form(p, N):
    fam = Kravchuk(p, N)
    for m in range(N + 1):
        assert (fam.recurrence_a(m), fam.recurrence_b(m)) == kravchuk_recurrence(fam, m)


@st.composite
def any_family_cases(draw):
    tag = draw(st.sampled_from(["charlier", "meixner", "kravchuk", "hahn"]))
    if tag == "charlier":
        fam = Charlier(draw(rationals(0, 20)))
    elif tag == "meixner":
        fam = Meixner(draw(rationals(0, 10)), draw(meixner_mu()))
    elif tag == "kravchuk":
        fam = Kravchuk(draw(rationals(0, 1)), draw(st.integers(min_value=1, max_value=30)))
    else:
        fam = Hahn(draw(rationals(-1, 5)), draw(rationals(-1, 5)),
                   draw(st.integers(min_value=1, max_value=30)))
    top = 25 if fam.max_degree() is None else min(25, fam.max_degree())
    return fam, draw(st.integers(min_value=0, max_value=top))


def points():
    """Evaluation points: integers and rationals of either sign, repeats
    allowed, the empty list included."""
    return st.lists(st.one_of(st.integers(min_value=-40, max_value=40),
                              st.fractions(min_value=-40, max_value=40, max_denominator=20)),
                    max_size=8)


@PROPERTY
@given(any_family_cases(), points())
# n = 0 and no points; repeated, negative and non-integer points on Hahn on
# alpha + beta = -1; Meixner at mu = 999/1000; Kravchuk at its top degree
@example((Charlier(F(7, 2)), 0), [])
@example((Meixner(F(5, 3), F(999, 1000)), 25), [])
@example((Hahn(F(1, 3), F(5, 2), 6), 0), [F(-1, 2), 3])
@example((Hahn(F(-1, 3), F(-2, 3), 9), 8), [F(-1, 2), F(5, 2), F(5, 2), -7, 12])
@example((Meixner(F(5, 3), F(999, 1000)), 25), [F(-13, 7), 0, F(1, 3), 40])
@example((Kravchuk(F(2, 7), 5), 4), [F(-3), F(1, 3), 7, 7])
def test_eval_points_equal_horner_on_fraction_monomials(case, xs):
    # the integer recurrence over the points' common denominator against
    # Horner on the plain Fraction recurrence's monomial coefficients
    fam, n = case
    coeffs = recurrence_monomials(fam, n)
    values = fam.eval_points(n, xs)
    assert values == [eval_coeffs(coeffs, x) for x in xs]
    assert all(type(v) is F for v in values)


# degree 0 on every family, and Meixner at mu = 999/1000
KERNEL_EXAMPLES = [(Charlier(F(7, 2)), 0), (Meixner(F(3, 2), F(999, 1000)), 0),
                   (Kravchuk(F(2, 7), 5), 0), (Hahn(F(1, 3), F(5, 2), 6), 0),
                   (Meixner(F(5, 3), F(999, 1000)), 25)]


def with_examples(test):
    for case in KERNEL_EXAMPLES:
        test = example(case)(test)
    return test


@PROPERTY
@given(any_family_cases().filter(lambda case: case[1] >= 1))
# alpha + beta = -1 at m = 1 and 2, where den f_1 would vanish; Hahn N = 2;
# Kravchuk at m = N-1; Meixner at mu = 999/1000; Hahn with d = 39
@example((Hahn(F(-1, 3), F(-2, 3), 9), 1))
@example((Hahn(F(-1, 3), F(-2, 3), 9), 2))
@example((Hahn(F(1, 2), F(5, 3), 2), 1))
@example((Kravchuk(F(2, 7), 9), 8))
@example((Meixner(F(5, 3), F(999, 1000)), 20))
@example((Hahn(F(7, 3), F(11, 13), 24), 23))
def test_structure_pairs_equal_recurrence_form_and_relation(case):
    # the hook against e_m, f_m from both families' recurrences, and the
    # relation P_m = Q_m + e_m Q_(m-1) + f_m Q_(m-2) itself at x = 0..m+2,
    # every polynomial by its own pointwise recurrence
    fam, m = case
    en, ed, fn, fd = fam.structure_pair(m)
    assert ed > 0 and fd > 0
    e, f = F(en, ed), F(fn, fd)
    assert (e, f) == structure_pair_from_recurrences(fam, m)
    target, _ = fam.ladder_target(m)
    for x in map(F, range(m + 3)):
        below = pointwise_value(target, m - 2, x) if m > 1 else 0
        assert pointwise_value(fam, m, x) == (pointwise_value(target, m, x)
                                              + e * pointwise_value(target, m - 1, x)
                                              + f * below)


@PROPERTY
@given(any_family_cases())
@with_examples
# Hahn on alpha + beta = -1, with N = 1 and 2, and with d = 39 at n = N-1
@example((Hahn(F(-1, 3), F(-2, 3), 9), 8))
@example((Hahn(F(1, 2), F(5, 3), 1), 0))
@example((Hahn(F(1, 2), F(5, 3), 2), 1))
@example((Hahn(F(7, 3), F(11, 13), 24), 23))
def test_connection_rows_equal_fraction_delta_walk(case):
    # the reference connection coefficients of the expansion sums: the
    # Delta-walk in Fraction arithmetic against the ladder row
    # n (j+1)_(n-1-j) r^(n-1-j), or the paper's 4F3 sum on Hahn
    fam, n = case
    r = fam.ladder_ratio()
    expected = hahn_connection_4f3(fam, n) if r is None else pochhammer_connection(n, r)
    assert delta_walk_connection(fam, n) == expected


@PROPERTY
@given(any_family_cases())
# every m on the ladder families; 2 <= m <= N-2 on Hahn, on alpha + beta = -1
# too, and Hahn with N = 1, 2 and 3, where that range is empty
@example((Meixner(F(5, 3), F(999, 1000)), 0))
@example((Kravchuk(F(2, 7), 9), 0))
@example((Hahn(F(-1, 3), F(-2, 3), 9), 0))
@example((Hahn(F(-1, 2), F(-1, 2), 30), 0))
@example((Hahn(F(1, 2), F(5, 3), 1), 0))
@example((Hahn(F(1, 2), F(5, 3), 2), 0))
@example((Hahn(F(1, 2), F(5, 3), 3), 0))
def test_structure_pair_f_vanishes_exactly_on_the_ladder_families(case):
    # fisher_expansion updates g alone on a step with f_m = 0 and drops h and
    # u; that is right only because f_m = 0 for every m on Charlier, Meixner
    # and Kravchuk and f_m != 0 for every m it steps through on Hahn
    fam, _ = case
    top = 40 if fam.max_degree() is None else fam.max_degree()
    for m in range(1, top + 1):
        f = fam.structure_pair(m)[2]
        if fam.tag != "hahn" or m == 1:
            assert f == 0
        elif m <= fam.N - 2:
            assert f != 0


@PROPERTY
@given(any_family_cases())
@with_examples
def test_norm_ratio_from_recurrence_equals_ratio_of_norms(case):
    # the one-reduction product 1/(b_1 ... b_n) of direct and difference
    fam, n = case
    assert fisher._norm_ratio(fam, n, 1, 1) == norm_ratio_from_norms(fam, n)
    assert fisher._norm_ratio(fam, n, 5, 36) == norm_ratio_from_norms(fam, n) * F(5, 36)


@PROPERTY
@given(any_family_cases())
@with_examples
# n = 1 and 2 on every family; Hahn on alpha + beta = -1, with N = 1 and 2;
# Kravchuk at n = N-1; Meixner at mu = 999/1000
@example((Charlier(F(7, 2)), 1))
@example((Charlier(F(7, 2)), 2))
@example((Meixner(F(5, 3), F(999, 1000)), 1))
@example((Meixner(F(5, 3), F(999, 1000)), 2))
@example((Kravchuk(F(2, 7), 9), 1))
@example((Kravchuk(F(2, 7), 9), 2))
@example((Kravchuk(F(2, 7), 9), 8))
@example((Kravchuk(F(1, 3), 1), 0))
@example((Hahn(F(7, 3), F(11, 13), 24), 1))
@example((Hahn(F(7, 3), F(11, 13), 24), 2))
@example((Hahn(F(7, 3), F(11, 13), 24), 23))
@example((Hahn(F(-1, 3), F(-2, 3), 9), 2))
@example((Hahn(F(-1, 3), F(-2, 3), 9), 8))
@example((Hahn(F(-1, 2), F(-1, 2), 12), 4))
@example((Hahn(F(1, 2), F(5, 3), 1), 0))
@example((Hahn(F(1, 2), F(5, 3), 2), 1))
def test_expansion_sum_equals_running_product(case):
    # the Gram recurrence against sum_j a_j^2 d_j^2/d_n^2 over the Delta-walk
    # coefficients, with the norm ratios as a running product of the b_m, in
    # Fraction arithmetic; it shares no code with the recurrence
    fam, n = case
    assert fisher_expansion(fam, n) == running_product_expansion(fam, n)


@PROPERTY
@given(any_family_cases().filter(lambda case: case[0].tag != "hahn"))
# n = 0, 1 and 2, Meixner at mu = 99/100 and 999/1000, Kravchuk at n = N-1
@example((Charlier(F(7, 2)), 0))
@example((Charlier(F(7, 2)), 1))
@example((Meixner(F(5, 3), F(99, 100)), 2))
@example((Meixner(F(5, 3), F(999, 1000)), 25))
@example((Kravchuk(F(2, 7), 2), 1))
@example((Kravchuk(F(2, 7), 9), 8))
@example((Kravchuk(F(1, 3), 1), 0))
def test_ladder_expansion_equals_running_product_of_pochhammer_rows(case):
    # on the ladder families the Gram recurrence steps only g, the term ratio
    # (m r)^2/b_m of the 2F1 closed forms: against each a_j taken on its own
    # and each norm ratio as a running product of b_m, in Fractions
    fam, n = case
    coeffs = pochhammer_connection(n, fam.ladder_ratio())
    assert fisher_expansion(fam, n) == running_product_expansion(fam, n, coeffs)


@PROPERTY
@given(any_family_cases(), st.lists(st.integers(min_value=0, max_value=40),
                                    min_size=1, max_size=4))
def test_factorial_rows_grow_to_the_oracle_moments(case, orders):
    # a fresh family's factorial moment row, asked for in the drawn order,
    # always holds the textbook moments
    fam, _ = case
    expected = factorial_moments(fam, max(orders))
    families._tables.cache_clear()
    for k in orders:
        nums, den = fam.factorial_row(k)
        assert len(nums) > k and math.gcd(den, *nums) == 1
        assert [F(c, den) for c in nums[:k + 1]] == expected[:k + 1]


def polynomials():
    """Monomial coefficients of a random rational polynomial of degree <= 9."""
    return st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=20),
                    min_size=1, max_size=10)


def last_moment(fam, k):
    """The last j <= k with a nonzero factorial moment: N on Kravchuk, N-1 on Hahn."""
    cut = {"kravchuk": 0, "hahn": -1}.get(fam.tag)
    return k if cut is None else min(k, fam.N + cut)


@PROPERTY
@given(any_family_cases(), polynomials(),
       st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=3))
# Kravchuk with k > N and Hahn with k >= N, where the row is cut; Hahn on
# alpha + beta = -1; k = 0; a smaller k asked for after a larger one
@example((Kravchuk(F(2, 7), 3), 0), [F(1, 3), F(-2), F(5, 2)], [6])
@example((Hahn(F(7, 3), F(11, 6), 4), 0), [F(-1, 2), F(0), F(1), F(3, 7)], [1, 0])
@example((Hahn(F(-1, 3), F(-2, 3), 6), 0), [F(1), F(-7, 2), F(2, 5)], [3])
@example((Meixner(F(5, 2), F(99, 100)), 0), [F(7, 3)], [0])
@example((Charlier(F(9, 4)), 0), [F(2), F(-1, 6)], [9, 2, 0])
def test_quadrature_row_sums_equal_newton_sum(case, c, extras):
    # the transposed difference table against Newton's formula summed from
    # the difference table of the values, for c of degree deg c + extra
    fam, _ = case
    families._tables.cache_clear()
    cn, cd = over_common_denominator(c)
    for extra in extras:
        k = len(cn) - 1 + extra
        row, den = fam.quadrature_row(k)
        assert len(row) == last_moment(fam, k) + 1
        values = [sum(a * x ** i for i, a in enumerate(cn)) for x in range(k + 1)]
        t, d = newton_sum(fam, values)
        assert F(sum(map(operator.mul, row, values)), den * cd) == F(t, d * cd)


@PROPERTY
@given(any_family_cases())
# Kravchuk with 2n >= N, where the last node lies past sigma + tau = 0, and
# with 2n < N; Hahn on alpha + beta = -1 and with N = 1 and 2; n = 0 and 1;
# Meixner at mu = 999/1000
@example((Kravchuk(F(2, 7), 9), 6))
@example((Kravchuk(F(3, 5), 20), 7))
@example((Hahn(F(-1, 3), F(-2, 3), 9), 5))
@example((Hahn(F(1, 2), F(5, 3), 1), 0))
@example((Hahn(F(1, 2), F(5, 3), 2), 1))
@example((Charlier(F(7, 2)), 0))
@example((Meixner(F(3, 2), F(2, 5)), 1))
@example((Meixner(F(5, 3), F(999, 1000)), 20))
def test_node_values_equal_horner_on_the_monomial_row(case):
    # the recurrence in n at the ends and the difference equation in between
    # against Horner on the Fraction monomial coefficients, at every node, in
    # lowest terms
    fam, n = case
    families._tables.cache_clear()
    nums, den = fam.node_values(n)
    assert len(nums) == last_moment(fam, 2 * n) + 2
    assert den > 0 and math.gcd(den, *nums) == 1
    assert [F(v, den) for v in nums] == horner_node_values(fam, n)


def product_coeffs(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def oracle_sum(fam, p, q):
    """sum_k c_k E x^k for c = p q, with the oracle's moments."""
    c = product_coeffs(p, q)
    return sum(ck * m for ck, m in zip(c, normalized_moments(fam, len(c) - 1)))


@PROPERTY
@given(any_family_cases(), polynomials(), polynomials())
# Kravchuk with deg p q > N, where the factorial moments vanish past N;
# Hahn on alpha + beta = -1; Meixner at mu = 99/100
@example((Kravchuk(F(2, 7), 3), 0), [F(1, 3)] * 4, [F(-2), F(5, 2), F(0), F(1)])
@example((Hahn(F(-1, 3), F(-2, 3), 6), 0), [F(1), F(-7, 2), F(2, 5)], [F(3, 4)] * 6)
@example((Meixner(F(5, 2), F(99, 100)), 0), [F(2, 3), F(1), F(-1)], [F(7), F(0), F(1, 9)])
def test_quadrature_row_sum_equals_coefficient_sum(case, p, q):
    # the quadrature row met with p q at its nodes against sum_k c_k E x^k,
    # with the moments from lattice sums (bounded) or Stirling numbers
    # (infinite)
    fam, _ = case
    assert quadrature_sum(fam, p, q) == oracle_sum(fam, p, q)


@PROPERTY
@given(any_family_cases())
@with_examples
@example((Charlier(F(7, 2)), 1))
@example((Meixner(F(5, 3), F(99, 100)), 1))
@example((Kravchuk(F(2, 7), 2), 1))
@example((Hahn(F(-1, 3), F(-2, 3), 4), 0))
@example((Hahn(F(-1, 3), F(-2, 3), 4), 1))
def test_direct_and_difference_equal_coefficient_sums(case):
    # the routes' Newton sums from node values against the monomial
    # coefficients of Delta P_n and P_n(x+1), squared and met with the moments
    fam, n = case
    p = recurrence_monomials(fam, n)
    ratio = norm_ratio_from_norms(fam, n)
    dp, shifted = diff_coeffs(p), shift_coeffs(p)
    assert fisher_direct(fam, n) == oracle_sum(fam, dp, dp) * ratio
    assert fisher_difference(fam, n) == oracle_sum(fam, shifted, shifted) * ratio - 1


def pfq_parameters():
    """Small rationals, integer-valued ones (negative included) often."""
    return st.one_of(st.fractions(min_value=-12, max_value=12, max_denominator=6),
                     st.integers(min_value=-12, max_value=12).map(F))


@st.composite
def pfq_specs(draw):
    # up to three terminating upper parameters -m (the smallest m ends the
    # series; none at all leaves it non-terminating), free upper and lower
    # parameters, and a lower pole -j before, at or after termination
    upper = ([F(-m) for m in draw(st.lists(st.integers(min_value=0, max_value=14),
                                           max_size=3))]
             + draw(st.lists(pfq_parameters(), max_size=3)))
    lower = draw(st.lists(pfq_parameters().filter(lambda b: b > 0 or b.denominator > 1),
                          max_size=3))
    if draw(st.booleans()):
        lower.append(F(-draw(st.integers(min_value=0, max_value=16))))
    upper, lower = draw(st.permutations(upper)), draw(st.permutations(lower))
    z = F(draw(st.integers(min_value=-30, max_value=30)),
          draw(st.integers(min_value=1, max_value=9)))
    if draw(st.booleans()):
        # int inputs wherever a value is integral
        upper, lower = ([int(v) if v.denominator == 1 else v for v in vs]
                        for vs in (upper, lower))
        z = int(z) if z.denominator == 1 else z
    return PFQSpec(tuple(upper), tuple(lower), z)


def pfq_outcome(evaluate, spec):
    try:
        return evaluate(spec)
    except (DenominatorPole, NonTerminatingSeries) as exc:
        return type(exc)


@PROPERTY
@given(pfq_specs())
# Meixner(23/4, 19/20) at n = 259: the closed form's 2F1
@example(PFQSpec((F(-258), F(1)), (F(-257) - F(23, 4),), F(19, 20)))
# lower poles: after termination (harmless), at the last summed term (raises)
@example(PFQSpec((F(-3), F(1, 2)), (F(-3),), F(2)))
@example(PFQSpec((F(-3), F(1, 2)), (F(-2),), F(2)))
# int inputs, z = 0, and two terminating upper parameters
@example(PFQSpec((-4, 2), (3,), -1))
@example(PFQSpec((F(-5), F(7, 3)), (F(1, 2),), F(0)))
@example(PFQSpec((F(-6), F(-2), F(3, 4)), (F(-4), F(5, 2)), F(-3, 2)))
def test_terminating_pfq_equals_term_by_term(spec):
    value = pfq_outcome(terminating_pfq, spec)
    assert value == pfq_outcome(terminating_pfq_terms, spec)
    if not isinstance(value, type):
        assert type(value) is Fraction


@PROPERTY
@given(st.booleans(), st.data(), st.integers(min_value=2, max_value=30))
def test_hahn_5f4_equals_term_by_term(on_line, data, N):
    # both 5F4s of Hahn.closed_form, on the alpha + beta = -1 line (where the
    # last term's factor is a removable 0/0, written as 1/2) and off it
    alpha = data.draw(rationals(-1, 0) if on_line else rationals(-1, 20))
    beta = -1 - alpha if on_line else data.draw(rationals(-1, 20))
    fam = Hahn(alpha, beta, N)
    n = data.draw(st.integers(min_value=1, max_value=N - 1))
    kernel, calls = families._hahn_5f4, []

    def recording(*args):
        calls.append(args)
        return kernel(*args)

    with mock.patch.object(families, "_hahn_5f4", recording):
        fam.closed_form(n)
    assert len(calls) == 2
    for args in calls:
        assert kernel(*args) == hahn_5f4_terms(*args)


@PROPERTY
@given(st.one_of(st.fractions(min_value=-15, max_value=15, max_denominator=12),
                 st.integers(min_value=-15, max_value=15)),
       st.integers(min_value=0, max_value=25))
@example(F(-7, 3), 9)     # negative, not an integer
@example(F(-4), 9)        # a vanishing factor
@example(-4, 9)
@example(F(5, 2), 0)
@example(3, 0)
def test_pochhammer_equals_rising(a, k):
    value = pochhammer(a, k)
    assert type(value) is Fraction and value == rising(a, k)


@st.composite
def grid_ends(draw):
    """(start, stop, count): rational ends, or the ends of an integer grid."""
    count = draw(st.integers(min_value=1, max_value=40))
    if draw(st.booleans()):
        start, step = draw(st.integers(-50, 50)), draw(st.integers(-5, 5))
        return start, start + step * (count - 1), count
    return draw(rationals(-50, 50, 40)), draw(rationals(-50, 50, 40)), count


@PROPERTY
@given(grid_ends())
@example((F(5, 2), F(5, 2), 4))     # start == stop
@example((F(-7, 3), F(11, 6), 1))   # one point
@example((0, 10, 11))               # the integers
@example((0, 10, 4))                # integer ends, steps of 10/3
def test_linear_grid_equals_start_plus_scaled_span(case):
    start, stop, count = case
    span = F(stop) - F(start)
    expected = tuple(F(start) + span * k / max(count - 1, 1) for k in range(count))
    grid = linear_grid(start, stop, count)
    assert grid == expected and all(type(v) is Fraction for v in grid)
    if all(v.denominator == 1 for v in expected):
        assert linear_grid(start, stop, count, integer=True) == tuple(map(int, expected))
    else:
        with pytest.raises(ValueError, match="non-integers"):
            linear_grid(start, stop, count, integer=True)
