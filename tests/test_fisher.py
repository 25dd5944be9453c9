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
    rakhmanov_density,
)

from oracles import (
    brute_force_fisher_bounded,
    diff_coeffs,
    gram_schmidt_coeffs,
    hahn_c3_hyp3f2,
    hahn_closed_on_the_line,
    ladder_ratio,
    norm_ratio_expansion,
    quadrature_sum,
    recurrence_monomials,
    rising,
    shift_coeffs,
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
        with mpmath.workdps(60):
            norm = truncated_square_sum(fam, p, 800)
            direct = truncated_square_sum(fam, diff_coeffs(p), 800) / norm
            difference = truncated_square_sum(fam, shift_coeffs(p), 800) / norm - 1
        assert rel_gap(fisher_direct(fam, n), direct, 60) <= mpf(10) ** -40
        assert rel_gap(fisher_difference(fam, n), difference, 60) <= mpf(10) ** -40

    @pytest.mark.parametrize("fam", [Charlier(F(5, 7)), Meixner(F(7, 3), F(2, 9)),
                                     Meixner(F(6), F(99, 100))])
    def test_orthogonality_is_exact(self, fam):
        mass = fam.reduced_norm(0)
        for n in range(8):
            for m in range(8):
                total = quadrature_sum(fam, recurrence_monomials(fam, n),
                                       recurrence_monomials(fam, m))
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

    @pytest.mark.parametrize("fam, n", [(Hahn(F(7, 3), F(11, 6), 400), 200),
                                        (Hahn(F(-1, 3), F(-2, 3), 160), 101)])
    def test_hahn_high_degree_equals_expansion(self, fam, n):
        # the node values at high degree, off and on alpha + beta = -1, where
        # the falling-factorial row's U_n is thousands of bits and negative
        # at odd n
        assert fisher_direct(fam, n) == fisher_difference(fam, n) == fisher_expansion(fam, n)


class TestWorkPerReport:
    """Work counted in calls, so the check holds on any host."""

    @staticmethod
    def count(monkeypatch, owner, name, calls):
        original = getattr(owner, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    @pytest.mark.parametrize("fam, n", [(Charlier(F(7, 3)), 9), (Meixner(F(5, 2), F(3, 7)), 8),
                                        (Kravchuk(F(2, 7), 6), 5), (Hahn(F(1, 2), F(2), 7), 6)])
    def test_report_builds_one_row_and_one_node_pass(self, monkeypatch, fam, n):
        # direct and difference share one quadrature row, one node-value
        # pass, which builds one falling-factorial row for its ends, and one
        # norm product of the n factor pairs b_1 .. b_n
        from dopfisher import families

        calls = {}
        for name in ("quadrature_row", "node_values", "end_values", "b_factors"):
            self.count(monkeypatch, families._Tables, name, calls)
        families._tables.cache_clear()
        report = fisher_report(fam, n, methods=[Method.DIRECT, Method.DIFFERENCE])
        assert len(report.values) == 2 and report.max_pairwise_rel_discrepancy == 0
        assert calls == {"quadrature_row": 1, "node_values": 1, "end_values": 1,
                         "b_factors": n}
        # expansion and closed add none of the three passes
        calls.clear()
        families._tables.cache_clear()
        report = fisher_report(fam, n)
        assert len(report.values) == 4 and report.max_pairwise_rel_discrepancy == 0
        assert [calls[name] for name in ("quadrature_row", "node_values", "end_values")] \
            == [1, 1, 1]

    @pytest.mark.parametrize("fam", [Charlier(F(7, 3)), Hahn(F(1, 2), F(2), 9),
                                     Meixner(F(5, 2), F(3, 7)), Kravchuk(F(2, 7), 12)])
    def test_each_route_looks_the_tables_up_once(self, monkeypatch, fam):
        # a lookup hashes the family's Fraction fields, so a route reads the
        # quadrature row, the node values and the coefficient rows from one;
        # expansion looks one up on Hahn alone, and closed on no family
        from dopfisher import families, fisher

        calls, original = [], families._tables

        def counted(fam):
            calls.append(fam)
            return original(fam)

        monkeypatch.setattr(families, "_tables", counted)
        monkeypatch.setattr(fisher, "_tables", counted)
        for method in Method:
            calls.clear()
            fisher_report(fam, 6, methods=[method])
            ladder = method is Method.EXPANSION and not isinstance(fam, Hahn)
            assert len(calls) == (0 if method is Method.CLOSED or ladder else 1)

    @staticmethod
    def count_rows(monkeypatch, seen):
        """Record the m of every coefficient row (b_m, e_m, f_m) built."""
        from dopfisher import families

        original = families._Tables.coefficients

        def counted(self, m):
            seen.append(m)
            return original(self, m)

        monkeypatch.setattr(families._Tables, "coefficients", counted)
        families._tables.cache_clear()

    @pytest.mark.parametrize("fam", [Charlier(F(7, 3)), Meixner(F(5, 2), F(3, 7)),
                                     Kravchuk(F(2, 7), 12)])
    def test_ladder_report_builds_no_coefficient_rows(self, monkeypatch, fam):
        # on the ladder families expansion steps over ratios read off sigma
        # and tau, and direct and difference multiply the unreduced b_m
        # factors, so a four-route report at n = 0..11 builds no row
        # (b_m, e_m, f_m) and reads sigma and tau once for the tables direct
        # and difference share, and once per expansion call at n >= 1, never
        # once per m
        calls, seen = {}, []
        self.count(monkeypatch, type(fam), "pearson_pair", calls)
        self.count_rows(monkeypatch, seen)
        fam = type(fam)(*vars(fam).values())   # a fresh instance: nothing read yet
        reports = [fisher_report(fam, n) for n in range(12)]
        assert seen == [] and calls == {"pearson_pair": 1 + 11}
        assert [r.values[Method.EXPANSION] for r in reports] == \
            [fisher_closed(fam, n) for n in range(12)]
        assert all(len(r.values) == 4 and r.max_pairwise_rel_discrepancy == 0
                   for r in reports)

    def test_ladder_parameter_sweep_builds_no_tables(self, monkeypatch, capsys):
        # every point of a parameter sweep is a new family, and expansion
        # reads its Pearson pair without building the family's tables
        from dopfisher import families

        built, original = [], families._Tables.__init__

        def counted(self, fam):
            built.append(fam)
            original(self, fam)

        monkeypatch.setattr(families._Tables, "__init__", counted)
        families._tables.cache_clear()
        assert main(["sweep", "--family", "meixner", "--mu", "1/2", "--n", "7",
                     "--sweep", "gamma", "--start", "1/2", "--stop", "6",
                     "--count", "40", "--methods", "expansion"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert built == [] and len(rows) == 40
        for k, row in enumerate(rows):
            gamma = F(1, 2) + F(11, 2) * F(k, 39)
            assert row.split(",")[7] == str(fisher_closed(Meixner(gamma, F(1, 2)), 7))

    @pytest.mark.parametrize("fam", [Charlier(F(7, 3)), Meixner(F(23, 4), F(19, 20)),
                                     Kravchuk(F(5, 9), 89)])
    def test_structure_pairs_read_the_pearson_pair_once(self, monkeypatch, fam):
        # on a ladder family the pairs are e_m = -m r, r the textbook ladder
        # ratio, in lowest terms, and f_m = 0, from sigma and tau read once
        # per family, not once per m
        from dopfisher import families

        calls, r = {}, ladder_ratio(fam)
        self.count(monkeypatch, type(fam), "pearson_pair", calls)
        families._tables.cache_clear()
        fam = type(fam)(*vars(fam).values())
        for m in range(1, 41):
            e = -m * r
            assert fam.structure_pair(m) == (e.numerator, e.denominator, 0, 1)
        assert calls == {"pearson_pair": 1}

    def test_hahn_degree_sweep_computes_each_structure_pair_once(self, monkeypatch):
        # each degree goes on from the Gram state the last one kept, so a
        # rising sweep n = 1..40 builds the coefficients of m = 1..39 once
        # each (b_n comes unreduced from its factors), and every value still
        # equals the closed form
        fam, seen = Hahn(F(7, 3), F(11, 13), 45), []
        self.count_rows(monkeypatch, seen)
        for n in range(1, 41):
            assert fisher_expansion(fam, n) == fisher_closed(fam, n)
        assert seen == list(range(1, 40))


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


def _rising(fam):
    return [(fam, n) for n in range(fam.N)]


def _falling(fam):
    return [(fam, n) for n in range(fam.N - 1, -1, -1)]


def _with_second_family(fam):
    # fam's degrees rising between another Hahn family's degrees falling
    other, calls = Hahn(F(5, 2), F(-1, 2), 11), []
    for n in range(max(fam.N, other.N)):
        if n < fam.N:
            calls.append((fam, n))
        if n < other.N:
            calls.append((other, other.N - 1 - n))
    return calls


def _evicting(fam):
    # more families than the table cache holds between two degrees of fam,
    # so its tables are dropped and rebuilt at every degree
    from dopfisher import families

    fillers = [(Hahn(F(i, 17), F(1, 3), 6), 4) for i in range(families._TABLE_CACHE_SIZE + 1)]
    return [c for n in range(fam.N) for c in [(fam, n), *fillers]]


class TestDegreeOrder:
    """Hahn ``expansion`` gives each value whatever calls came before it: the
    same degrees rising, falling, interleaved with another family, and with
    the family's tables evicted in between."""

    @pytest.mark.parametrize("fam", [Hahn(F(7, 3), F(11, 6), 14), Hahn(F(-1, 3), F(-2, 3), 9),
                                     Hahn(F(1, 2), F(5, 3), 2)])
    @pytest.mark.parametrize("order", [_rising, _falling, _with_second_family, _evicting])
    def test_values_do_not_depend_on_the_call_order(self, fam, order):
        from dopfisher import families

        calls = order(fam)
        expected = {}
        for call in calls:
            if call not in expected:
                families._tables.cache_clear()
                expected[call] = fisher_expansion(*call)
                assert expected[call] == fisher_closed(*call)
        families._tables.cache_clear()
        assert [fisher_expansion(*call) for call in calls] == [expected[c] for c in calls]


class TestCacheBounds:
    def test_caches_keyed_on_families_stay_bounded(self):
        from dopfisher import families

        tables = families._tables
        for i in range(2000):
            fam = Hahn(F(i, 2001), F(1, 3), 6)
            assert fisher_expansion(fam, 5) > 0
            fam.eval_poly(3, F(1, 2))
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
        # pure values plus a kept Gram state that each call replaces whole:
        # concurrent readers must see identical exact results
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
        # the kept quadrature row and node values change under them; a row
        # read at the wrong degree would change the direct or difference value
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

    def test_gram_state_is_kept_whole_under_contention(self):
        # many threads run one family's expansion up and down the degrees at
        # once, with a short switch interval, each going on from or replacing
        # the kept Gram state; a state read half old and half new, or taken
        # past the degree asked for, would change the values
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from dopfisher import families

        fam = Hahn(F(5, 3), F(-2, 7), 30)
        points = [F(-7, 2), F(0), F(11, 3), F(31)]

        def work(n):
            pairs = tuple(map(fam.structure_pair, range(n)))
            return pairs, fam.eval_points(n, points), fisher_expansion(fam, n)

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
