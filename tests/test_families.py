import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from dopfisher.families import (
    Charlier,
    DegreeOutOfRange,
    Family,
    Hahn,
    Kravchuk,
    LatticeSupport,
    Meixner,
    NormValue,
    OutOfSupport,
    ParameterDomainError,
    diff_coeffs,
    make_family,
    shift_coeffs,
)
from oracles import (
    gram_schmidt_coeffs,
    hahn_connection_4f3,
    hahn_recurrence,
    pochhammer_connection,
    pointwise_value,
    truncated_square_sum,
)

F = Fraction

ALL_FAMILIES = [
    Charlier(F(2)),
    Meixner(F(3, 2), F(1, 2)),
    Meixner(F(2), F(1, 2)),
    Kravchuk(F(1, 2), 10),
    Hahn(F(3), F(-1, 2), 10),
    Hahn(F(0), F(0), 9),
]


def max_n(fam, cap):
    top = fam.max_degree()
    return cap if top is None else min(cap, top)


class TestDomainValidation:
    def test_parameter_domains(self):
        with pytest.raises(ParameterDomainError):
            Charlier(F(0))
        with pytest.raises(ParameterDomainError):
            Meixner(F(0), F(1, 2))
        with pytest.raises(ParameterDomainError):
            Meixner(F(1), F(1))
        with pytest.raises(ParameterDomainError):
            Kravchuk(F(1), 5)
        with pytest.raises(ParameterDomainError):
            Kravchuk(F(1, 2), 0)
        with pytest.raises(ParameterDomainError):
            Hahn(F(-1), F(0), 5)  # the boundary itself is excluded
        with pytest.raises(ParameterDomainError):
            Hahn(F(0), F(-3, 2), 5)

    def test_float_parameter_refused(self):
        with pytest.raises(TypeError, match="str or a Fraction"):
            Charlier(0.1)
        assert Charlier("0.1").mu == F(1, 10)

    def test_make_family(self):
        fam = make_family("kravchuk", p=F(1, 2), N=3)
        assert isinstance(fam, Kravchuk) and fam.N == 3
        with pytest.raises(ValueError):
            make_family("legendre")
        with pytest.raises(ValueError):
            make_family("charlier")  # mu missing
        with pytest.raises(ValueError):
            make_family("charlier", mu=F(2), p=F(1, 2))  # stray parameter

    def test_supports(self):
        assert Charlier(F(2)).support() == LatticeSupport(0, None)
        assert Meixner(F(2), F(1, 2)).support() == LatticeSupport(0, None)
        assert Kravchuk(F(1, 2), 3).support() == LatticeSupport(0, 4)  # x = 0..N
        assert Hahn(F(0), F(0), 5).support() == LatticeSupport(0, 5)  # x = 0..N-1

    def test_degree_bounds(self):
        with pytest.raises(DegreeOutOfRange):
            Kravchuk(F(1, 2), 3).eval_poly(3, F(0))
        with pytest.raises(DegreeOutOfRange):
            Hahn(F(0), F(0), 5).reduced_norm(5)
        Charlier(F(2)).eval_poly(40, F(1))  # unbounded degree is fine


class TestWeights:
    def test_charlier_weight(self):
        assert Charlier(F(2)).reduced_weight(3) == F(4, 3)  # mu^x / x!

    def test_kravchuk_weight(self):
        assert Kravchuk(F(1, 2), 3).reduced_weight(1) == F(3, 8)

    def test_meixner_weight(self):
        # mu^x (gamma)_x / x!
        assert Meixner(F(2), F(1, 2)).reduced_weight(3) == F(1, 8) * 24 / 6

    def test_hahn_uniform_weight(self):
        fam = Hahn(F(0), F(0), 5)
        assert [fam.reduced_weight(x) for x in range(5)] == [F(1)] * 5

    def test_out_of_support(self):
        with pytest.raises(OutOfSupport):
            Kravchuk(F(1, 2), 3).reduced_weight(4)
        with pytest.raises(OutOfSupport):
            Hahn(F(0), F(0), 5).reduced_weight(5)
        with pytest.raises(OutOfSupport):
            Charlier(F(2)).reduced_weight(-1)


class TestWeightRatio:
    def test_charlier(self):
        assert Charlier(F(2)).weight_ratio(4) == 2  # x / mu

    def test_meixner(self):
        assert Meixner(F(2), F(1, 2)).weight_ratio(1) == 1  # x/(mu (gamma+x-1))

    @pytest.mark.parametrize("fam", ALL_FAMILIES)
    def test_matches_weight_quotient_and_sigma_tau_identity(self, fam):
        sup = fam.support()
        top = 13 if sup.b is None else sup.b
        for x in range(1, min(13, top)):
            ratio = fam.weight_ratio(x)
            assert ratio == fam.reduced_weight(x - 1) / fam.reduced_weight(x)
            denominator = fam.tau(x - 1) + fam.sigma(x - 1)
            if denominator != 0:
                assert ratio == fam.sigma(x) / denominator

    def test_needs_x_at_least_one(self):
        with pytest.raises(OutOfSupport):
            Charlier(F(2)).weight_ratio(0)


class TestNorms:
    def test_charlier_rational_part(self):
        norm = Charlier(F(2)).reduced_norm(3)
        assert norm.rational == 48  # n! mu^n
        assert norm.exp_coeff == 2  # carries e^mu so the weight pairing stays consistent

    def test_kravchuk(self):
        assert Kravchuk(F(1, 2), 3).reduced_norm(1).rational == F(3, 4)

    def test_hahn_uniform(self):
        # uniform weight: d_1^2 = N (N^2 - 1) / 12
        assert Hahn(F(0), F(0), 5).reduced_norm(1).rational == 10

    @pytest.mark.parametrize("alpha, beta", [(F(-1, 2), F(-1, 2)), (F(-1, 3), F(-2, 3)),
                                             (F(3), F(-1, 2)), (F(0), F(0))])
    def test_hahn_degree_zero_is_the_total_weight(self, alpha, beta):
        # d_0^2 = sum_x w(x), also on alpha + beta = -1 where the general
        # formula reads 0/0
        for N in (1, 2, 7, 12):
            fam = Hahn(alpha, beta, N)
            total = sum(fam.reduced_weight(x) for x in fam.support().points())
            assert fam.reduced_norm(0).rational == total

    def test_meixner_symbolic_power(self):
        fam = Meixner(F(3, 2), F(1, 4))
        norm = fam.reduced_norm(2)
        assert norm.pow_base == F(3, 4)
        assert norm.pow_expo == -(F(3, 2) + 4)

    def test_exact_ratio_cancels_symbolic_parts(self):
        fam = Meixner(F(3, 2), F(1, 2))
        ratio = fam.reduced_norm(0).exact_ratio(fam.reduced_norm(1))
        # d0^2/d1^2 = (1-mu)^2 / (gamma mu)
        assert ratio == F(1, 4) / (F(3, 2) * F(1, 2))
        charlier = Charlier(F(2))
        assert charlier.reduced_norm(2).exact_ratio(charlier.reduced_norm(3)) == F(8, 48)

    def test_exact_ratio_rejects_uncancelled_parts(self):
        a = NormValue(F(1), pow_base=F(1, 2), pow_expo=F(1, 2))
        b = NormValue(F(1))
        with pytest.raises(ValueError):
            a.exact_ratio(b)

    def test_to_float_restores_constants(self):
        with mpmath.workdps(50):
            norm = Charlier(F(2)).reduced_norm(0).to_float(50)
            assert abs(norm - mpmath.exp(2)) < mpf(10) ** -45

    @pytest.mark.parametrize("fam", ALL_FAMILIES)
    def test_recurrence_b_equals_norm_ratio(self, fam):
        for n in range(1, max_n(fam, 8) + 1):
            expected = fam.reduced_norm(n).exact_ratio(fam.reduced_norm(n - 1))
            assert fam.recurrence_b(n) == expected


class TestTailRatioBound:
    @pytest.mark.parametrize("fam", [Charlier(F(2)), Meixner(F(1, 2), F(1, 2)),
                                     Meixner(F(1), F(1, 3)), Meixner(F(3), F(3, 4))])
    def test_bounds_every_later_weight_ratio(self, fam):
        # gamma < 1, = 1 and > 1 for Meixner
        for x in (0, 1, 5, 20):
            bound = fam.tail_ratio_bound(x)
            for y in range(x, x + 201):
                assert bound >= 1 / fam.weight_ratio(y + 1)

    @pytest.mark.parametrize("fam", [Kravchuk(F(1, 2), 10), Hahn(F(0), F(0), 9)])
    def test_bounded_family_has_no_tail_bound(self, fam):
        with pytest.raises(TypeError):
            fam.tail_ratio_bound(0)


class TestTableData:
    def test_charlier_row(self):
        fam = Charlier(F(2))
        data = fam.table_data()
        assert data.sigma == (0, 1, 0)
        assert data.tau == (2, -1)
        assert fam.lambda_n(5) == 5

    def test_kravchuk_row(self):
        fam = Kravchuk(F(1, 4), 6)
        data = fam.table_data()
        assert data.tau == (F(6, 4) / F(3, 4), F(-4, 3))
        assert fam.lambda_n(3) == 4

    def test_hahn_row(self):
        fam = Hahn(F(3), F(-1, 2), 10)
        data = fam.table_data()
        assert fam.sigma(F(2)) == 2 * (10 + 3 - 2)
        assert data.tau == (F(1, 2) * 9, -(F(3) - F(1, 2) + 2))
        assert fam.lambda_n(2) == 2 * (2 + F(5, 2) + 1)

    @pytest.mark.parametrize("fam", ALL_FAMILIES)
    def test_difference_equation_holds_exactly(self, fam):
        for n in range(max_n(fam, 8) + 1):
            lam = fam.lambda_n(n)
            for x in range(n + 4):
                xf = F(x)
                second = (fam.eval_poly(n, xf + 1) - 2 * fam.eval_poly(n, xf)
                          + fam.eval_poly(n, xf - 1))
                residual = (fam.sigma(xf) * second
                            + fam.tau(xf) * fam.forward_diff(n, xf)
                            + lam * fam.eval_poly(n, xf))
                assert residual == 0


class TestEvalPoly:
    @pytest.mark.parametrize("fam", ALL_FAMILIES)
    def test_degree_zero_is_one(self, fam):
        assert fam.eval_poly(0, F(17, 3)) == 1

    def test_charlier_linear(self):
        assert Charlier(F(2)).eval_poly(1, F(5)) == 3  # x - mu

    def test_hahn_linear_uniform(self):
        assert Hahn(F(0), F(0), 5).eval_poly(1, F(0)) == -2  # x - (N-1)/2

    @pytest.mark.parametrize("fam", ALL_FAMILIES)
    def test_matches_gram_schmidt_oracle(self, fam):
        for n in range(max_n(fam, 6) + 1):
            assert fam.poly_coeffs(n) == gram_schmidt_coeffs(fam, n)

    def test_monic_leading_coefficient(self):
        for fam in ALL_FAMILIES:
            coeffs = fam.poly_coeffs(max_n(fam, 7))
            assert coeffs[-1] == 1

    @pytest.mark.parametrize("fam", ALL_FAMILIES + [Kravchuk(F(2, 7), 31),
                                                    Hahn(F(-1, 2), F(-1, 2), 12)])
    def test_one_pass_matches_pointwise_recurrence(self, fam):
        # the routes' lattice a..b (one past a bounded support), else thirds
        sup = fam.support()
        if sup.b is None:
            xs = [F(x, 3) for x in range(-3, 40)]
        else:
            xs = range(sup.a, sup.b + 1)
        for n in range(max_n(fam, 12) + 1):
            values = fam.eval_points(n, xs)
            assert len(values) == len(xs)
            for x, value in zip(xs, values):
                assert value == pointwise_value(fam, n, x) == fam.eval_poly(n, x)

    def test_coeff_helpers(self):
        coeffs = (F(1), F(2), F(1))  # (x+1)^2
        assert shift_coeffs(coeffs, 1) == (F(4), F(4), F(1))
        assert diff_coeffs(coeffs) == (F(3), F(2))  # (x+2)^2 - (x+1)^2


class TestDifferences:
    def test_degree_zero_diff_is_zero(self):
        for fam in ALL_FAMILIES:
            assert fam.forward_diff(0, F(3)) == 0

    def test_charlier_linear_diff(self):
        fam = Charlier(F(2))
        for x in range(5):
            assert fam.forward_diff(1, F(x)) == 1

    def test_kravchuk_diff_cross_checked_by_ladder(self):
        fam = Kravchuk(F(1, 2), 3)
        lowered = Kravchuk(F(1, 2), 2)
        value = fam.forward_diff(2, F(0))
        assert value == 2 * lowered.eval_poly(1, F(0))
        assert value == -2


class TestLadder:
    def test_charlier_target_keeps_parameters(self):
        fam = Charlier(F(2))
        target, factor = fam.ladder_target(3)
        assert target == fam and factor == 3

    def test_meixner_target_shifts_gamma(self):
        target, factor = Meixner(F(3, 2), F(1, 4)).ladder_target(2)
        assert target == Meixner(F(5, 2), F(1, 4)) and factor == 2

    def test_kravchuk_target_drops_N(self):
        target, _ = Kravchuk(F(1, 3), 7).ladder_target(1)
        assert target == Kravchuk(F(1, 3), 6)

    def test_hahn_target_shifts_everything(self):
        target, factor = Hahn(F(0), F(0), 5).ladder_target(2)
        assert target == Hahn(F(1), F(1), 4) and factor == 2

    @pytest.mark.parametrize("fam", ALL_FAMILIES)
    def test_pointwise(self, fam):
        for n in range(1, max_n(fam, 8) + 1):
            target, factor = fam.ladder_target(n)
            for x in range(11):
                assert fam.forward_diff(n, F(x)) == factor * target.eval_poly(n - 1, F(x))

    def test_degree_zero_has_no_ladder(self):
        with pytest.raises(DegreeOutOfRange):
            Charlier(F(2)).ladder_target(0)


class TestConnectionCoeffs:
    def test_charlier_single_term(self):
        assert Charlier(F(2)).connection_coeffs(3) == [0, 0, 3]

    def test_meixner_specialization(self):
        assert Meixner(F(2), F(1, 2)).connection_coeffs(2) == [-2, 2]

    @pytest.mark.parametrize("fam, r", [
        (Meixner(F(3, 2), F(1, 4)), F(-1, 3)),
        (Meixner(F(7), F(19, 20)), F(-19)),
        (Kravchuk(F(2, 3), 61), F(2, 3)),
        (Kravchuk(F(1, 9), 61), F(1, 9)),
    ])
    def test_ladder_walk_matches_pochhammer_form(self, fam, r):
        for n in range(61):
            assert fam.connection_coeffs(n) == pochhammer_connection(n, r)

    @pytest.mark.parametrize("fam", ALL_FAMILIES)
    def test_defining_property(self, fam):
        for n in range(max_n(fam, 6) + 1):
            coeffs = fam.connection_coeffs(n)
            assert len(coeffs) == n
            for x in range(n + 3):
                xf = F(x)
                expanded = sum(a * fam.eval_poly(j, xf) for j, a in enumerate(coeffs))
                assert fam.forward_diff(n, xf) == expanded

    @pytest.mark.parametrize("fam", ALL_FAMILIES)
    def test_generic_walk_on_every_family(self, fam):
        # the base-class Delta-recurrence, which Hahn uses, pinned on all four
        # families: the defining property, and equality with the O(n) forms
        for n in range(max_n(fam, 8) + 1):
            coeffs = Family.connection_coeffs(fam, n)
            assert coeffs == fam.connection_coeffs(n)
            for x in range(n + 3):
                xf = F(x)
                expanded = sum(a * fam.eval_poly(j, xf) for j, a in enumerate(coeffs))
                assert fam.forward_diff(n, xf) == expanded


# includes the alpha + beta = -1 line and large denominators
HAHN_GRID = [
    Hahn(F(0), F(0), 20),
    Hahn(F(3), F(-1, 2), 20),
    Hahn(F(-1, 2), F(-1, 2), 12),
    Hahn(F(-99, 100), F(-1, 100), 12),
    Hahn(F(-99, 100), F(5, 7), 16),
    Hahn(F(7, 3), F(11, 13), 24),
    Hahn(F(40), F(0), 9),
    Hahn(F(1, 2), F(2), 1),
]


class TestHahnAgainstReplacedFormulas:
    @pytest.mark.parametrize("fam", HAHN_GRID)
    def test_connection_coeffs_equal_4f3_sum(self, fam):
        for n in range(fam.N):
            assert fam.connection_coeffs(n) == hahn_connection_4f3(fam, n)

    @pytest.mark.parametrize("fam", HAHN_GRID)
    def test_recurrence_equals_fraction_form(self, fam):
        a, b = fam.recurrence_a_upto(fam.N), fam.recurrence_b_upto(fam.N)
        for m in range(fam.N):
            expected = hahn_recurrence(fam, m)
            assert (fam.recurrence_a(m), fam.recurrence_b(m)) == expected
            assert (a[m], b[m]) == expected


class TestOrthogonality:
    @pytest.mark.parametrize("fam", [
        Kravchuk(F(1, 4), 8), Kravchuk(F(1, 2), 8), Kravchuk(F(2, 3), 8),
        Hahn(F(0), F(0), 9), Hahn(F(3), F(-1, 2), 9), Hahn(F(1), F(2), 9),
    ])
    def test_bounded_exact(self, fam):
        top = max_n(fam, 8)
        for n in range(top + 1):
            for m in range(n, top + 1):
                total = sum(fam.reduced_weight(x)
                            * fam.eval_poly(n, F(x)) * fam.eval_poly(m, F(x))
                            for x in fam.support().points())
                if n == m:
                    assert total == fam.reduced_norm(n).rational
                else:
                    assert total == 0

    @pytest.mark.parametrize("fam", [Charlier(F(2)), Meixner(F(3, 2), F(1, 2))])
    def test_truncated_within_1e30(self, fam):
        # <P_n, P_m> by polarization of the oracle's truncated square sums
        bound = mpf(10) ** -30
        with mpmath.workdps(80):
            for n in range(9):
                for m in range(n, 9):
                    cp, cm = padded(fam.poly_coeffs(n), fam.poly_coeffs(m))
                    plus = [a + b for a, b in zip(cp, cm)]
                    minus = [a - b for a, b in zip(cp, cm)]
                    total = (truncated_square_sum(fam, plus, 300, 80)
                             - truncated_square_sum(fam, minus, 300, 80)) / 4
                    scale = mpmath.sqrt(fam.reduced_norm(n).to_float(80)
                                        * fam.reduced_norm(m).to_float(80))
                    if n == m:
                        gap = abs(total - fam.reduced_norm(n).to_float(80)) / scale
                    else:
                        gap = abs(total) / scale
                    assert gap <= bound


def padded(p, q):
    size = max(len(p), len(q))
    return (tuple(p) + (F(0),) * (size - len(p)), tuple(q) + (F(0),) * (size - len(q)))


def falling_factorial(j):
    """Monomial coefficients of x (x-1) ... (x-j+1)."""
    coeffs = [F(1)]
    for i in range(j):
        coeffs = [(coeffs[k - 1] if k else 0) - (i * coeffs[k] if k < len(coeffs) else 0)
                  for k in range(len(coeffs) + 1)]
    return coeffs


class TestFactorialMoments:
    @pytest.mark.parametrize("fam", [Charlier(F(2)), Charlier(F(9, 2)),
                                     Meixner(F(3, 2), F(1, 2)), Meixner(F(1, 3), F(2, 3)),
                                     Meixner(F(4), F(1, 5))])
    def test_hooks_match_the_truncated_oracle(self, fam):
        # sum_x w(x) = reduced_norm(0); sum_x w(x) x(x-1)...(x-j+1) by polarization
        with mpmath.workdps(60):
            mass = fam.reduced_norm(0).to_float(60)
            assert abs(truncated_square_sum(fam, [F(1)], 600) / mass - 1) < mpf(10) ** -45
            for j, moment in enumerate(fam.factorial_moments(8)):
                f, one = padded(falling_factorial(j), [F(1)])
                plus = [a + b for a, b in zip(f, one)]
                minus = [a - b for a, b in zip(f, one)]
                total = (truncated_square_sum(fam, plus, 600)
                         - truncated_square_sum(fam, minus, 600)) / 4
                assert abs(total / mass / moment - 1) < mpf(10) ** -45

    @pytest.mark.parametrize("fam", [Kravchuk(F(1, 2), 10), Kravchuk(F(2, 7), 13),
                                     Hahn(F(0), F(0), 9), Hahn(F(3), F(-1, 2), 7),
                                     Hahn(F(-1, 2), F(-1, 2), 12)])
    def test_bounded_moments_match_lattice_sums(self, fam):
        # plain exact sums over the support; past its last point every
        # falling factorial vanishes on it, so the moments do too
        points = fam.support().points()
        mass = sum(fam.reduced_weight(x) for x in points)
        assert fam.reduced_norm(0).rational == mass
        for j, moment in enumerate(fam.factorial_moments(len(points) + 2)):
            assert moment == sum(fam.reduced_weight(x) * math.perm(x, j) for x in points) / mass
