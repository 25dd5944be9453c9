from fractions import Fraction

import pytest

from dopfisher.asymptotics import (
    kravchuk_max_degree,
    kravchuk_max_degree_large_N,
    kravchuk_p_to_one,
    kravchuk_p_to_zero,
    meixner_gamma_to_infinity,
    meixner_gamma_to_zero,
    meixner_large_n,
    meixner_large_n_second_order,
    meixner_mu_to_one,
    meixner_mu_to_zero,
)
from dopfisher.families import Kravchuk, Meixner
from dopfisher.fisher import fisher_expansion

F = Fraction

#: the 1/n^2 coefficient c2 of the Meixner degree expansion, per (gamma, mu)
DEGREE_C2 = {(F(3, 2), F(1, 4)): F(2, 3), (F(4), F(1, 4)): F(44),
             (F(3, 2), F(1, 7)): F(35, 24)}


class TestMeixnerFormulas:
    def test_large_n_constant_when_gamma_is_one(self):
        for n in (1, 5, 50):
            assert meixner_large_n(F(1), F(1, 4), n) == 3  # (1-mu)/mu

    def test_mu_to_one_degenerates_at_degree_one(self):
        # the terminating factor is 1, leaving (1-mu)^2/gamma
        for gamma in (F(3, 2), F(2)):
            for mu in (F(9, 10), F(99, 100)):
                assert meixner_mu_to_one(gamma, 1, mu) == (1 - mu) ** 2 / gamma

    def test_mu_to_zero_plugin(self):
        assert meixner_mu_to_zero(F(2), 1, F(1, 100)) == 50

    def test_large_n_plugin(self):
        # (1-mu)/mu - (gamma-1)/(mu n) = 3 - 12/100
        assert meixner_large_n(F(4), F(1, 4), 100) == F(72, 25)

    def test_gamma_limits_plugin(self):
        assert meixner_gamma_to_infinity(2, F(1, 2), F(100)) == F(2) * F(1, 4) / (F(1, 2) * 100)
        assert meixner_gamma_to_zero(1, F(1, 2), F(1, 100)) == 100 * F(1, 4) * 2

    @pytest.mark.parametrize("gamma,mu,level", [
        (F(3, 2), F(1, 4), 3), (F(4), F(1, 4), 3), (F(3, 2), F(1, 7), 6)])
    def test_degree_gap_stays_bounded(self, gamma, mu, level):
        # n^2 (exact - asymptote) approaches c2 from below
        fam = Meixner(gamma, mu)
        c2 = DEGREE_C2[gamma, mu]
        assert meixner_large_n_second_order(gamma, mu) == c2
        for n in range(10, 201, 10):
            gap = n * n * (fisher_expansion(fam, n) - meixner_large_n(gamma, mu, n))
            assert 0 < gap <= c2
        assert abs(fisher_expansion(fam, 200) - level) < abs(fisher_expansion(fam, 10) - level)

    @pytest.mark.parametrize("make_pair", [
        lambda mu: (fisher_expansion(Meixner(F(2), mu), 2),
                    meixner_mu_to_zero(F(2), 2, mu)),
        lambda mu: (fisher_expansion(Meixner(F(3, 2), 1 - mu), 2),
                    meixner_mu_to_one(F(3, 2), 2, 1 - mu)),
    ])
    def test_mu_limits_converge_monotonically(self, make_pair):
        gaps = []
        for mu in (F(1, 10), F(1, 100), F(1, 1000)):
            exact, asym = make_pair(mu)
            gaps.append(abs(float(exact) / float(asym) - 1))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_gamma_limits_converge_monotonically(self):
        up, down = [], []
        for k in (2, 3, 4):
            exact = fisher_expansion(Meixner(F(10 ** k), F(1, 4)), 2)
            up.append(abs(float(exact / meixner_gamma_to_infinity(2, F(1, 4), F(10 ** k))) - 1))
            exact = fisher_expansion(Meixner(F(1, 10 ** k), F(1, 4)), 2)
            down.append(abs(float(exact / meixner_gamma_to_zero(2, F(1, 4), F(1, 10 ** k))) - 1))
        assert up[0] > up[1] > up[2]
        assert down[0] > down[1] > down[2]


class TestKravchukFormulas:
    def test_max_degree_matches_exact_value(self):
        assert kravchuk_max_degree(3, F(1, 2)) == F(16, 3)
        for N in range(2, 11):
            for p in (F(1, 4), F(1, 2), F(2, 3)):
                assert kravchuk_max_degree(N, p) == fisher_expansion(Kravchuk(p, N), N - 1)

    def test_p_to_zero_within_one_percent(self):
        p = F(1, 10000)
        exact = fisher_expansion(Kravchuk(p, 15), 2)
        asym = kravchuk_p_to_zero(2, 15, p)
        assert asym == F(2) / (14 * p)
        assert abs(float(exact / asym) - 1) < 0.01

    def test_p_to_one_converges(self):
        gaps = []
        for p in (F(9, 10), F(99, 100), F(999, 1000)):
            exact = fisher_expansion(Kravchuk(p, 15), 2)
            gaps.append(abs(float(exact / kravchuk_p_to_one(2, 15, p)) - 1))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_large_N_form_tracks_max_degree(self):
        gaps = []
        for N in (10, 20, 40):
            gaps.append(abs(float(kravchuk_max_degree(N, F(1, 2))
                                  / kravchuk_max_degree_large_N(N, F(1, 2))) - 1))
        assert gaps[0] > gaps[1] > gaps[2]
