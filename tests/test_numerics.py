import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from dopfisher.numerics import (
    DenominatorPole,
    NonTerminatingSeries,
    PFQSpec,
    accelerated_pfq_at_minus_one,
    is_nonpositive_integer,
    pochhammer,
    terminating_pfq,
    to_fraction,
    to_mpf,
)


def F(*args):
    return Fraction(*args)


class TestPochhammer:
    def test_rising_factorial(self):
        assert pochhammer(F(3), 4) == 360  # 3*4*5*6

    @pytest.mark.parametrize("a", [F(3), F(-7, 2), F(0), F(12, 5)])
    def test_empty_product(self, a):
        assert pochhammer(a, 0) == 1

    def test_vanishing_factor(self):
        assert pochhammer(F(-2), 4) == 0  # the factor (-2+2) kills it

    def test_additivity(self):
        rng = random.Random(7)
        for _ in range(60):
            a = F(rng.randint(-15, 15), rng.randint(1, 9))
            j, k = rng.randint(0, 20), rng.randint(0, 20)
            assert pochhammer(a, j + k) == pochhammer(a, j) * pochhammer(a + j, k)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(F(1), -1)


class TestTerminatingPFQ:
    def test_zero_upper_parameter(self):
        spec = PFQSpec((F(0), F(1)), (F(5),), F(3, 10))
        assert terminating_pfq(spec) == 1

    def test_two_term_series(self):
        # 1 - z/3 at z = 1/2
        spec = PFQSpec((F(-1), F(1)), (F(3),), F(1, 2))
        assert terminating_pfq(spec) == F(5, 6)

    def test_two_term_series_at_minus_one(self):
        # 1 + 1/3, the building block of the Kravchuk closed form at n=2, N=3, p=1/2
        spec = PFQSpec((F(-1), F(1)), (F(3),), F(-1))
        assert terminating_pfq(spec) == F(4, 3)

    def test_zero_argument_is_one(self):
        rng = random.Random(3)
        for _ in range(20):
            spec = PFQSpec((F(-rng.randint(0, 9)), F(rng.randint(1, 5))),
                           (F(rng.randint(1, 6)),), F(0))
            assert terminating_pfq(spec) == 1

    def test_termination_index(self):
        assert PFQSpec((F(-3), F(-5)), (F(1),), F(1)).termination_index() == 3
        assert PFQSpec((F(1, 2),), (F(1),), F(1)).termination_index() is None

    def test_non_terminating_rejected(self):
        with pytest.raises(NonTerminatingSeries):
            terminating_pfq(PFQSpec((F(1, 2), F(1)), (F(3),), F(1)))

    def test_pole_before_termination(self):
        # lower parameter -2 vanishes at term 3, inside the 5-term range
        with pytest.raises(DenominatorPole):
            terminating_pfq(PFQSpec((F(-5), F(1)), (F(-2),), F(1, 2)))

    def test_pole_at_or_after_termination_is_harmless(self):
        # termination at m=1 precedes the pole of (-2)_k at k=3
        spec = PFQSpec((F(-1), F(1)), (F(-2),), F(1, 2))
        assert terminating_pfq(spec) == F(5, 4)


class TestToFraction:
    def test_float_refused_even_when_exact(self):
        with pytest.raises(TypeError, match="str or a Fraction"):
            to_fraction(0.5)
        assert to_fraction("0.5") == to_fraction(F(1, 2)) == F(1, 2)


class TestIsNonpositiveInteger:
    def test_fractions_and_ints(self):
        assert is_nonpositive_integer(F(-3))
        assert is_nonpositive_integer(0)
        assert not is_nonpositive_integer(F(-1, 2))
        assert not is_nonpositive_integer(2)


class TestAcceleration:
    def test_terminating_input_returns_exact_sum(self):
        value, converged = accelerated_pfq_at_minus_one(
            PFQSpec((F(-1), F(1)), (F(3),), F(-1)))
        assert converged
        assert value == F(4, 3)

    def test_ln2_regression(self):
        # 2F1(1,1;2;-1) = log(1+z)/z at z=-1 = ln 2
        value, converged = accelerated_pfq_at_minus_one(
            PFQSpec((F(1), F(1)), (F(2),), F(-1)),
            tol=F(1, 10**45), dps=50)
        assert converged
        with mpmath.workdps(60):
            assert abs(value - mpmath.log(2)) < mpf(10) ** -40

    def test_ln2_against_partial_sum_averaging(self):
        # independent check: 10^4 raw partial sums of the alternating
        # harmonic series, tail collapsed by 60 plain averaging passes
        sums = []
        s = 0.0
        for k in range(10_000):
            s += (-1.0) ** k / (k + 1)
            sums.append(s)
        tail = sums[-3001:]
        for _ in range(60):
            tail = [(tail[i] + tail[i + 1]) / 2 for i in range(len(tail) - 1)]
        oracle = tail[0]
        value, converged = accelerated_pfq_at_minus_one(
            PFQSpec((F(1), F(1)), (F(2),), F(-1)), dps=50)
        assert converged
        assert abs(float(value) - oracle) < 1e-12

    def test_divergent_alternating_series_matches_closed_form_rearrangement(self):
        # The 3F2(1, 7/2, 3; 3, 5/2; -1) inside the degree-2 uniform-weight
        # closed form.  Solving that closed form for the accelerated factor
        # with the exact expansion value I = 45/14 (N=5) gives 2/5:
        #   lead = 10/7, squared-factor products 147/100 and 22/100,
        #   alternating-factor coefficient 7/5.
        lead = F(10, 7)
        exact = F(45, 14)
        implied = (exact / lead - F(147, 100) - F(22, 100)) / F(7, 5)
        assert implied == F(2, 5)
        value, converged = accelerated_pfq_at_minus_one(
            PFQSpec((F(1), F(7, 2), F(3)), (F(3), F(5, 2)), F(-1)), dps=40)
        assert converged
        assert abs(value - to_mpf(implied)) < mpf(10) ** -12

    def test_non_minus_one_argument_rejected(self):
        with pytest.raises(ValueError):
            accelerated_pfq_at_minus_one(PFQSpec((F(1),), (F(2),), F(1)))

    def test_non_convergence_is_flagged_not_invented(self):
        # a slow case (non-integer parameter excess, so the averaging does not
        # terminate) with far too few terms: the flag must come back False
        spec = PFQSpec((F(1), F(19, 4), F(11, 2)), (F(3), F(15, 4)), F(-1))
        value, converged = accelerated_pfq_at_minus_one(
            spec, tol=F(1, 10**40), dps=40, max_terms=14)
        assert not converged
        assert value == value  # a finite number is still reported
        # the same series does stabilize once the budget is realistic
        _, converged = accelerated_pfq_at_minus_one(spec, tol=F(1, 10**20), dps=40)
        assert converged
