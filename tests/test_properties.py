"""Property-based route agreement over random rational parameters.

Bounded families: the three exact routes agree bit for bit, and the Hahn
closed form equals the expansion, on alpha + beta = -1 too.  Infinite
supports: the exact closed form equals the expansion, Charlier gives n/mu,
and the factorial-moment direct and difference routes equal the expansion
bit for bit, Meixner mu up to 999/1000 included.
Every value is positive, and zero exactly at degree 0.  The integer kernels
of the Meixner, Kravchuk and Hahn recurrence coefficients equal their
Fraction forms; the integer monomial and connection rows equal their plain
Fraction recurrences and stay in lowest terms; the integer expansion sum
equals the running-product Fraction loop; the per-family raw moment row,
grown in any order, equals the oracle's moments; and the integer Horner
kernels of the terminating pFq and the Hahn 5F4, and the one-reduction
Pochhammer product, equal their term-by-term Fraction forms.  The
cancelled forms that keep the cost set by the degree and not by the lattice
size -- the norm ratio d_0^2/d_n^2 from the recurrence and the Hahn closed
form without its products of length N -- equal the forms written with those
products.  Examples are drawn deterministically, so the suite stays
reproducible.
"""

import math
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dopfisher import families, fisher
from dopfisher.families import Charlier, Family, Hahn, Kravchuk, Meixner
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
    pochhammer,
    terminating_pfq,
)

from oracles import (
    as_fractions,
    delta_walk_connection,
    hahn_5f4_terms,
    hahn_closed_uncancelled,
    hahn_recurrence,
    kravchuk_recurrence,
    meixner_recurrence,
    norm_ratio_from_norms,
    normalized_moments,
    recurrence_monomials,
    rising,
    running_product_expansion,
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


# degree 0 on every family, and Meixner at mu = 999/1000
KERNEL_EXAMPLES = [(Charlier(F(7, 2)), 0), (Meixner(F(3, 2), F(999, 1000)), 0),
                   (Kravchuk(F(2, 7), 5), 0), (Hahn(F(1, 3), F(5, 2), 6), 0),
                   (Meixner(F(5, 3), F(999, 1000)), 25)]


def with_examples(test):
    for case in KERNEL_EXAMPLES:
        test = example(case)(test)
    return test


@PROPERTY
@given(any_family_cases())
@with_examples
def test_connection_rows_equal_fraction_delta_walk(case):
    # the family's row (the ladder product on Charlier, Meixner and Kravchuk)
    # and the base-class integer Delta-walk, on every family
    fam, n = case
    expected = delta_walk_connection(fam, n)
    for row_of in (fam.connection_row, lambda m: Family.connection_row(fam, m)):
        assert as_fractions(row_of(n)) == expected
        # every row in lowest terms, so no common factor piles up degree by degree
        for m in range(n + 1):
            nums, den = row_of(m)
            assert den > 0 and len(nums) == m and math.gcd(den, *nums) == 1


@PROPERTY
@given(any_family_cases())
@with_examples
def test_norm_ratio_from_recurrence_equals_ratio_of_norms(case):
    # the one-reduction product 1/(b_1 ... b_n) of direct and difference
    fam, n = case
    assert fisher._norm_ratio(fam, n, 1) == norm_ratio_from_norms(fam, n)
    assert fisher._norm_ratio(fam, n, 6) == norm_ratio_from_norms(fam, n) / 36


@PROPERTY
@given(any_family_cases())
@with_examples
def test_expansion_sum_equals_running_product(case):
    fam, n = case
    assert fisher_expansion(fam, n) == running_product_expansion(fam, n)


@PROPERTY
@given(any_family_cases(), st.lists(st.integers(min_value=0, max_value=40),
                                    min_size=1, max_size=4))
def test_moment_rows_grow_to_the_oracle_moments(case, orders):
    # a fresh family's raw moment row, extended in the drawn order, always
    # holds the oracle's moments: the kept numerators follow the denominator
    fam, _ = case
    expected = normalized_moments(fam, max(orders))
    families._tables.cache_clear()
    for k in orders:
        nums, den = fam.moment_row(k)
        assert len(nums) > k
        assert [F(c, den) for c in nums[:k + 1]] == expected[:k + 1]


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
