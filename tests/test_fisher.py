from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from dopfisher.cli import main
from dopfisher.families import Charlier, Family, Hahn, Kravchuk, Meixner
from dopfisher.fisher import (
    Method,
    fisher_closed,
    fisher_difference,
    fisher_direct,
    fisher_expansion,
    fisher_report,
    moment_sum,
    rakhmanov_density,
)

from oracles import (
    brute_force_fisher_bounded,
    forward_difference,
    gram_schmidt_coeffs,
    hahn_c3_hyp3f2,
    hahn_closed_on_the_line,
    norm_ratio_expansion,
    rising,
    truncated_square_sum,
)

F = Fraction


def max_degree(fam, cap):
    top = fam.max_degree()
    return cap if top is None else min(cap, top)


def rel_gap(a, b, dps=80):
    with mpmath.workdps(dps):
        fa = a if isinstance(a, mpf) else mpf(a.numerator) / a.denominator
        fb = b if isinstance(b, mpf) else mpf(b.numerator) / b.denominator
        scale = max(abs(fa), abs(fb))
        return abs(fa - fb) / scale if scale else mpf(0)


class TestRakhmanovDensity:
    def test_degree_zero_is_normalized_weight(self):
        fam = Kravchuk(F(1, 2), 3)
        assert [rakhmanov_density(fam, 0, x) for x in range(4)] == \
            [F(1, 8), F(3, 8), F(3, 8), F(1, 8)]

    def test_hahn_uniform(self):
        fam = Hahn(F(0), F(0), 5)
        assert all(rakhmanov_density(fam, 0, x) == F(1, 5) for x in range(5))

    def test_bounded_normalization_exact(self):
        fam = Kravchuk(F(1, 2), 3)
        assert sum(rakhmanov_density(fam, 2, x) for x in range(4)) == 1

    def test_unbounded_values_are_bigfloat_and_normalized(self):
        fam = Charlier(F(2))
        value = rakhmanov_density(fam, 1, 0, dps=60)
        assert isinstance(value, mpf)
        with mpmath.workdps(60):
            # w(0) P_1(0)^2 / (d_1^2 e^mu) = 4 / (2 e^2)
            assert abs(value - 2 / mpmath.exp(2)) < mpf(10) ** -55
        total = sum(rakhmanov_density(fam, 2, x, dps=60) for x in range(120))
        assert abs(total - 1) < mpf(10) ** -30

    def test_nonnegative(self):
        for fam, n in [(Charlier(F(2)), 3), (Meixner(F(3, 2), F(1, 2)), 2),
                       (Kravchuk(F(1, 4), 6), 4), (Hahn(F(3), F(-1, 2), 7), 3)]:
            points = range(8) if fam.support().b is None else fam.support().points()
            assert all(rakhmanov_density(fam, n, x) >= 0 for x in points)


class TestDirect:
    def test_charlier_truncated(self):
        # the infinite-lattice sum is exact: no truncation left
        assert fisher_direct(Charlier(F(2)), 3) == F(3, 2)

    def test_kravchuk_exact(self):
        assert fisher_direct(Kravchuk(F(1, 2), 3), 2) == F(16, 3)

    def test_degree_zero(self):
        assert fisher_direct(Kravchuk(F(1, 2), 3), 0) == 0
        assert fisher_direct(Charlier(F(2)), 0) == 0

    @pytest.mark.parametrize("fam,n", [
        (Kravchuk(F(1, 4), 7), 3), (Kravchuk(F(1, 2), 5), 4),
        (Hahn(F(0), F(0), 6), 2), (Hahn(F(3), F(-1, 2), 6), 3),
        (Kravchuk(F(2, 7), 23), 9), (Hahn(F(1, 3), F(5, 2), 21), 8),
    ])
    def test_matches_gram_schmidt_brute_force(self, fam, n):
        # the plain lattice sum is the independent check of both moment routes
        value = brute_force_fisher_bounded(fam, n)
        assert fisher_direct(fam, n) == fisher_difference(fam, n) == value


class TestDifferenceRoute:
    def test_degree_zero_reproduces_zero_exactly(self):
        # on bounded supports the boundary term is inside the shifted moment
        # sum; the exact zero validates that convention
        assert fisher_difference(Kravchuk(F(1, 2), 3), 0) == 0
        assert fisher_difference(Hahn(F(3), F(-1, 2), 7), 0) == 0
        assert fisher_difference(Charlier(F(2)), 0) == 0

    def test_charlier_linear_law(self):
        assert fisher_difference(Charlier(F(2)), 1) == F(1, 2)

    def test_hahn_uniform_degree_one(self):
        fam = Hahn(F(0), F(0), 5)
        value = fisher_difference(fam, 1)
        assert value == F(1, 2)  # 12/(N^2-1)
        assert value == fisher_direct(fam, 1)

    def test_dropping_the_boundary_term_would_break_kravchuk(self):
        # the finite-support boundary w(N) P_n(N+1)^2 is genuinely nonzero
        fam = Kravchuk(F(1, 2), 3)
        boundary = fam.reduced_weight(3) * fam.eval_poly(2, F(4)) ** 2
        assert boundary != 0
        assert fisher_difference(fam, 2) == fisher_direct(fam, 2)


class TestExpansion:
    def test_charlier(self):
        assert fisher_expansion(Charlier(F(2)), 3) == F(3, 2)

    def test_meixner_degree_one(self):
        fam = Meixner(F(2), F(1, 2))
        value = fisher_expansion(fam, 1)
        assert value == F(1, 4)  # (1-mu)^2/(mu gamma)
        assert fisher_direct(fam, 1) == value

    def test_kravchuk_degree_one(self):
        fam = Kravchuk(F(1, 2), 10)
        value = fisher_expansion(fam, 1)
        assert value == F(2, 5)  # 1/(N p (1-p))
        assert fisher_direct(fam, 1) == value

    @pytest.mark.parametrize("fam", [
        Charlier(F(2)), Charlier(F(7, 3)),
        Meixner(F(3, 2), F(1, 4)), Meixner(F(4), F(3, 4)), Meixner(F(1, 3), F(9, 10)),
        Kravchuk(F(1, 2), 10), Kravchuk(F(2, 7), 23),
        Hahn(F(3), F(-1, 2), 14), Hahn(F(0), F(0), 9), Hahn(F(-2, 3), F(5, 2), 17),
    ])
    def test_recurrence_product_matches_norm_ratios(self, fam):
        # d_j^2/d_n^2 = 1/(b_(j+1) ... b_n) against the ratio of the norms
        for n in range(max_degree(fam, 24) + 1):
            assert fisher_expansion(fam, n) == norm_ratio_expansion(fam, n)

    @pytest.mark.parametrize("fam, n", [(Hahn(F(-1, 2), F(-1, 2), 12), 4),
                                        (Hahn(F(-1, 3), F(-2, 3), 30), 17)])
    def test_alpha_plus_beta_minus_one(self, fam, n):
        # on this line the general Hahn norm formula reads 0/0 at degree 0
        value = fisher_expansion(fam, n)
        assert value == fisher_direct(fam, n) == fisher_difference(fam, n)

    def test_alpha_plus_beta_minus_one_value(self):
        assert fisher_expansion(Hahn(F(-1, 2), F(-1, 2), 12), 4) == F(93824, 15015)

    @pytest.mark.parametrize("fam", [Charlier(F(2)), Charlier(F(5)),
                                     Meixner(F(3, 2), F(1, 4)),
                                     Meixner(F(4), F(3, 4))])
    def test_truncated_direct_matches_exact_expansion(self, fam):
        for n in range(1, 9):
            exact = fisher_expansion(fam, n)
            assert fisher_direct(fam, n) == exact
            assert fisher_difference(fam, n) == exact


class TestClosed:
    def test_charlier(self):
        assert fisher_closed(Charlier(F(2)), 3) == F(3, 2)

    def test_kravchuk(self):
        assert fisher_closed(Kravchuk(F(1, 2), 3), 2) == F(16, 3)

    def test_degree_zero(self):
        for fam in [Charlier(F(2)), Meixner(F(2), F(1, 2)),
                    Kravchuk(F(1, 2), 3), Hahn(F(0), F(0), 5)]:
            assert fisher_closed(fam, 0) == F(0)

    def test_meixner_matches_expansion_exactly(self):
        for gamma in (F(3, 2), F(2), F(4)):
            for mu in (F(1, 4), F(3, 4)):
                fam = Meixner(gamma, mu)
                for n in range(12):
                    assert fisher_closed(fam, n) == fisher_expansion(fam, n)

    def test_kravchuk_matches_expansion_exactly(self):
        for p in (F(1, 4), F(1, 2), F(2, 3)):
            fam = Kravchuk(p, 9)
            for n in range(9):
                assert fisher_closed(fam, n) == fisher_expansion(fam, n)

    def test_meixner_large_degree_approaches_inverse_odds(self):
        # for mu = 1/4 the large-n level is (1-mu)/mu = 3
        fam = Meixner(F(3, 2), F(1, 4))
        value = fisher_closed(fam, 100)
        assert abs(value - 3) < F(3) * F(2, 100)

    def test_hahn_against_expansion(self):
        for al, be in [(F(0), F(0)), (F(3), F(-1, 2)), (F(1), F(2))]:
            fam = Hahn(al, be, 8)
            for n in range(1, 8):
                assert fisher_closed(fam, n) == fisher_expansion(fam, n)

    @pytest.mark.parametrize("alpha, N", [(F(-1, 2), 12), (F(-99, 100), 15), (F(-1, 3), 26)])
    def test_hahn_on_alpha_plus_beta_minus_one_matches_laurent_oracle(self, alpha, N):
        # the oracle runs the form before its 0/0s were cancelled, off the line
        fam = Hahn(alpha, -1 - alpha, N)
        for n in range(1, N):
            value = hahn_closed_on_the_line(alpha, N, n)
            assert fisher_closed(fam, n) == value == fisher_expansion(fam, n)


C3_GRID = [(s, n) for s in (F(-5, 3), F(-1), F(-1, 2), F(0), F(7, 6), F(3), F(8), F(10))
           for n in (1, 2, 5, 13)]


class TestHahnC3:
    """The 3F2(1, a+1, b; n+1, a; -1) of the Hahn closed form, a = (s+1)/2 + n
    and b = s+n+1, is the rational n/(2n+s+1)."""

    @pytest.mark.parametrize("s, n", C3_GRID)
    def test_hyp3f2_equals_rational(self, s, n):
        value = F(n) / (2 * n + s + 1)
        assert rel_gap(hahn_c3_hyp3f2(s, n), value, 50) <= mpf(10) ** -45

    @pytest.mark.parametrize("s, n", C3_GRID)
    def test_terms_telescope(self, s, n):
        # t_k = T_(k+1) - T_k with T_k = -(n+k)/(2a) (b)_k/(n+1)_k (-1)^k,
        # so the Abel sum is -T_0 = n/(2a) = n/(2n+s+1)
        a, b = (s + 1) / 2 + n, s + n + 1

        def ratio(k):
            return rising(b, k) / rising(F(n + 1), k) * (-1) ** k

        def T(k):
            return -(n + k) / (2 * a) * ratio(k)

        for k in range(40):
            assert ratio(k) * (1 + k / a) == T(k + 1) - T(k)
        assert -T(0) == F(n) / (2 * n + s + 1)


class TestReport:
    def test_charlier_all_routes_agree(self):
        report = fisher_report(Charlier(F(2)), 3)
        assert set(report.values) == set(Method)
        assert report.values[Method.EXPANSION] == F(3, 2)
        assert report.values[Method.CLOSED] == F(3, 2)
        assert set(report.values.values()) == {F(3, 2)}
        assert report.max_pairwise_rel_discrepancy == 0

    def test_kravchuk_four_way_exact(self):
        report = fisher_report(Kravchuk(F(1, 2), 12), 5)
        values = set(report.values.values())
        assert len(values) == 1 and isinstance(values.pop(), Fraction)
        assert report.max_pairwise_rel_discrepancy == 0

    def test_hahn_three_exact_plus_flagged_closed_form(self):
        report = fisher_report(Hahn(F(0), F(0), 20), 1)
        expected = F(12, 399)
        assert report.values[Method.DIRECT] == expected
        assert report.values[Method.DIFFERENCE] == expected
        assert report.values[Method.EXPANSION] == expected
        assert report.values[Method.CLOSED] == expected

    def test_errors_collected_without_aborting(self, monkeypatch):
        # an injected failure inside one route's family hook
        def fail(self, n):
            raise ZeroDivisionError("injected")

        fam = Hahn(F(-1, 2), F(-1, 2), 12)
        assert fisher_closed(fam, 4) == F(93824, 15015)
        monkeypatch.setattr(Hahn, "closed_form", fail)
        report = fisher_report(fam, 4)
        assert list(report.errors) == [Method.CLOSED]
        assert report.errors[Method.CLOSED] == "ZeroDivisionError: injected"
        assert report.values == {m: F(93824, 15015) for m in
                                 (Method.DIRECT, Method.DIFFERENCE, Method.EXPANSION)}
        assert report.max_pairwise_rel_discrepancy == 0

    def test_method_subset(self):
        report = fisher_report(Charlier(F(2)), 2, methods=[Method.EXPANSION])
        assert list(report.values) == [Method.EXPANSION]
        assert report.max_pairwise_rel_discrepancy is None

    def test_nonzero_discrepancy_is_exact_and_printed(self, monkeypatch, capsys):
        # a closed form off by one part in 10^6: |a - b| / max(|a|, |b|)
        # is (1/10^6) / (1000001/10^6) against the three exact routes
        monkeypatch.setattr(Charlier, "closed_form",
                            lambda self, n: Fraction(n) / self.mu * F(1000001, 1000000))
        report = fisher_report(Charlier(F(2)), 3)
        assert report.values[Method.CLOSED] == F(3, 2) * F(1000001, 1000000)
        assert type(report.max_pairwise_rel_discrepancy) is Fraction
        assert report.max_pairwise_rel_discrepancy == F(1, 1000001)
        assert main(["fisher", "--family", "charlier", "--mu", "2", "--n", "3"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 4
        assert all(row.split(",")[-1] == "9.99999e-7" for row in rows)


class TestMomentSums:
    """The infinite-lattice direct and difference routes against a plain
    truncated big-float sum over the lattice (tests/oracles.py), with P_n from
    Gram-Schmidt; the total mass, reduced_norm(0), and the norm cancel in the
    ratio."""

    GRID = [(Charlier(F(2)), 5), (Charlier(F(7, 2)), 8), (Charlier(F(1, 3)), 3),
            (Meixner(F(3, 2), F(1, 2)), 6), (Meixner(F(4), F(1, 4)), 9),
            (Meixner(F(1, 3), F(2, 3)), 4)]

    @pytest.mark.parametrize("fam, n", GRID)
    def test_oracle_agrees_to_1e40(self, fam, n):
        p = gram_schmidt_coeffs(fam, n)
        shifted = [a + b for a, b in zip(p, forward_difference(p) + [F(0)])]
        with mpmath.workdps(60):
            norm = truncated_square_sum(fam, p, 800)
            direct = truncated_square_sum(fam, forward_difference(p), 800) / norm
            difference = truncated_square_sum(fam, shifted, 800) / norm - 1
        assert rel_gap(fisher_direct(fam, n), direct, 60) <= mpf(10) ** -40
        assert rel_gap(fisher_difference(fam, n), difference, 60) <= mpf(10) ** -40

    @pytest.mark.parametrize("fam", [Charlier(F(5, 7)), Meixner(F(7, 3), F(2, 9)),
                                     Meixner(F(6), F(99, 100))])
    def test_orthogonality_is_exact(self, fam):
        mass = fam.reduced_norm(0)
        for n in range(8):
            for m in range(8):
                total = moment_sum(fam, fam.poly_coeffs(n), fam.poly_coeffs(m))
                assert total == (fam.reduced_norm(n).exact_ratio(mass) if n == m else 0)

    @pytest.mark.parametrize("fam, n", [(Charlier(F(2)), 40), (Charlier(F(5, 7)), 60),
                                        (Charlier(F(30)), 19), (Meixner(F(3, 2), F(1, 2)), 40),
                                        (Meixner(F(2), F(999, 1000)), 3),
                                        (Meixner(F(6), F(99, 100)), 4)])
    def test_high_degree_and_mu_near_one_equal_expansion(self, fam, n):
        assert fisher_direct(fam, n) == fisher_difference(fam, n) == fisher_expansion(fam, n)

    def test_bounded_routes_make_no_lattice_pass(self, monkeypatch):
        # bounded direct and difference are moment sums too: no P_n values on
        # the lattice, so their cost does not grow with N
        from dopfisher import families

        degrees = []
        original = Family.eval_points

        def counted(self, n, xs):
            degrees.append(n)
            return original(self, n, xs)

        families._tables.cache_clear()
        monkeypatch.setattr(Family, "eval_points", counted)
        for fam in (Kravchuk(F(1, 3), 17), Hahn(F(1, 2), F(2), 13)):
            report = fisher_report(fam, 9, methods=[Method.DIRECT, Method.DIFFERENCE])
            assert report.values[Method.DIRECT] == report.values[Method.DIFFERENCE]
        assert degrees == []

    @pytest.mark.parametrize("fam, n", [(Kravchuk(F(1, 3), 2000), 10),
                                        (Hahn(F(1, 2), F(5, 3), 1500), 8)])
    def test_large_lattice_equals_expansion(self, fam, n):
        assert fisher_direct(fam, n) == fisher_difference(fam, n) == fisher_expansion(fam, n)


class TestInvariants:
    FAMILIES = [Charlier(F(2)), Meixner(F(3, 2), F(1, 2)),
                Kravchuk(F(1, 4), 6), Hahn(F(3), F(-1, 2), 6)]

    @pytest.mark.parametrize("fam", FAMILIES)
    def test_nonnegative_and_zero_iff_degree_zero(self, fam):
        for n in range(4):
            values = [fisher_expansion(fam, n), fisher_closed(fam, n),
                      fisher_direct(fam, n), fisher_difference(fam, n)]
            for value in values:
                if n == 0:
                    assert value == 0
                else:
                    assert value > 0

    def test_three_way_exact_agreement_sample(self):
        for N in (2, 4, 8):
            for fam in (Kravchuk(F(2, 3), N), Hahn(F(1), F(2), N)):
                for n in range(N):
                    a = fisher_direct(fam, n)
                    b = fisher_difference(fam, n)
                    c = fisher_expansion(fam, n)
                    assert a == b == c


class TestCacheBounds:
    def test_caches_keyed_on_families_stay_bounded(self):
        from dopfisher import families

        tables = families._tables
        for i in range(2000):
            fam = Hahn(F(i, 2001), F(1, 3), 6)
            assert fisher_expansion(fam, 5) > 0
            fam.poly_coeffs(3)
            assert tables.cache_info().currsize <= families._TABLE_CACHE_SIZE

    @pytest.mark.parametrize("fam", [Hahn(F(1, 2), F(2, 3), 10 ** 6),
                                     Kravchuk(F(1, 3), 10 ** 6)], ids=["hahn", "kravchuk"])
    def test_large_lattice_costs_what_the_degree_costs(self, fam):
        # every route at N = 10^6 holds integers of a few hundred bits; the
        # norms' factorials and Pochhammers of length N would take megabytes
        import tracemalloc
        tracemalloc.start()
        try:
            report = fisher_report(fam, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.values) == 4 and report.max_pairwise_rel_discrepancy == 0
        assert peak < 100_000


class TestConcurrency:
    def test_shared_family_is_safe_across_threads(self):
        # pure values plus an internal coefficient cache: concurrent readers
        # must see identical exact results
        from concurrent.futures import ThreadPoolExecutor

        fam = Hahn(F(3), F(-1, 2), 12)
        expected = [fisher_expansion(fam, n) for n in range(12)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(3):
                results = list(pool.map(lambda n: fisher_expansion(fam, n),
                                        list(range(12)) * 4))
                assert results == expected * 4

    def test_lattice_pass_is_shared_safely_across_threads(self):
        # threads ask for different degrees of one bounded family at once, so
        # the shared monomial rows grow under them; a row read at the wrong
        # degree would change the direct or difference value
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from dopfisher import families

        fam = Kravchuk(F(2, 5), 24)
        expected = [fisher_expansion(fam, n) for n in range(24)]
        families._tables.cache_clear()
        order = [n for k in range(6) for n in (range(24) if k % 2 else range(23, -1, -1))]

        def work(n):
            return fisher_direct(fam, n), fisher_difference(fam, n)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(work, n) for n in order]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(old)
        assert results == [(expected[n], expected[n]) for n in order]

    def test_tables_grow_without_lost_rows_under_contention(self):
        # many threads grow one family's tables and move its Delta-walk up and
        # down at once, with a short switch interval; a lost or duplicated
        # update would put a row at the wrong degree and change the values
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from dopfisher import families

        fam = Hahn(F(5, 3), F(-2, 7), 30)

        def work(n):
            return fam.connection_row(n), fam.poly_coeffs(n), fisher_expansion(fam, n)

        expected = [work(n) for n in range(30)]
        families._tables.cache_clear()
        order = [n for k in range(8) for n in (range(30) if k % 2 else range(29, -1, -1))]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(work, n) for n in order]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(old)
        assert results == [expected[n] for n in order]
        tables = families._tables(fam)
        # rows for degrees 0..29; fisher_expansion(fam, 29) also reads b_30
        assert (len(tables.monos), len(tables.a), len(tables.b)) == (30, 29, 30)
