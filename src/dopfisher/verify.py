"""Invariant suites: the package's self-checks, runnable from the CLI.

Each suite re-derives a structural identity (orthogonality, the difference
equation, ladder relations, cross-method agreement, closed-form equivalence,
asymptote convergence) over a desk-scale grid and counts pass/fail.  The
first failing case records its full inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Callable, Dict, List, Optional

from . import asymptotics
from .families import Charlier, Hahn, Kravchuk, Meixner
from .fisher import (
    fisher_closed,
    fisher_difference,
    fisher_direct,
    fisher_expansion,
    rakhmanov_density,
)
from .numerics import (
    PFQSpec,
    accelerated_pfq_at_minus_one,
    pochhammer,
    terminating_pfq,
)


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def check(self, condition: bool, describe: str) -> None:
        if condition:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(describe)


def _sample_families():
    return [
        Charlier(Fraction(2)),
        Meixner(Fraction(3, 2), Fraction(1, 2)),
        Kravchuk(Fraction(1, 2), 10),
        Hahn(Fraction(3), Fraction(-1, 2), 10),
        Hahn(Fraction(0), Fraction(0), 9),
    ]


def _max_n(fam, cap):
    top = fam.max_degree()
    return cap if top is None else min(cap, top)


def _inner(fam, n: int, m: int) -> Fraction:
    """sum_x w(x) P_n(x) P_m(x) / sum_x w(x), exact: the quadrature row of
    degree n + m met with P_n P_m at its nodes."""
    row, den = fam.quadrature_row(n + m)
    nodes = range(len(row))
    values = map(mul, fam.eval_points(n, nodes), fam.eval_points(m, nodes))
    return sum(map(mul, row, values)) / den


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_numerics() -> SuiteResult:
    out = SuiteResult("numerics")
    rng = random.Random(20240811)
    for _ in range(40):
        j, k = rng.randint(0, 20), rng.randint(0, 20)
        a = Fraction(rng.randint(-15, 15), rng.randint(1, 7))
        out.check(pochhammer(a, j + k) == pochhammer(a, j) * pochhammer(a + j, k),
                  f"pochhammer additivity at a={a}, j={j}, k={k}")
    for _ in range(20):
        m = rng.randint(0, 8)
        spec = PFQSpec((Fraction(-m), Fraction(rng.randint(1, 5))),
                       (Fraction(rng.randint(1, 6)),), Fraction(0))
        out.check(terminating_pfq(spec) == 1, f"pfq at argument 0 not 1: {spec}")
    # log(2) regression for the accelerated route: 2F1(1,1;2;-1) = ln 2
    import mpmath
    value, converged = accelerated_pfq_at_minus_one(
        PFQSpec((Fraction(1), Fraction(1)), (Fraction(2),), Fraction(-1)),
        tol=Fraction(1, 10**45), dps=50)
    with mpmath.workdps(50):
        out.check(converged and abs(value - mpmath.log(2)) < mpmath.mpf(10) ** -40,
                  f"accelerated ln2 regression: got {value}, converged={converged}")
    return out


def suite_weight_ratio() -> SuiteResult:
    out = SuiteResult("weight-ratio")
    for fam in _sample_families():
        sup = fam.support()
        top = 13 if sup.b is None else sup.b
        for x in range(1, min(13, top)):
            direct = fam.weight_ratio(x)
            out.check(direct == fam.reduced_weight(x - 1) / fam.reduced_weight(x),
                      f"{fam}: closed-form weight ratio vs weight quotient at x={x}")
            denom = fam.tau(x - 1) + fam.sigma(x - 1)
            if denom != 0:
                out.check(direct == fam.sigma(x) / denom,
                          f"{fam}: sigma/tau identity at x={x}")
    return out


def suite_recurrence_norms() -> SuiteResult:
    out = SuiteResult("recurrence-norms")
    for fam in _sample_families():
        for n in range(1, _max_n(fam, 8) + 1):
            ratio = fam.reduced_norm(n).exact_ratio(fam.reduced_norm(n - 1))
            out.check(fam.recurrence_b(n) == ratio,
                      f"{fam}: b_{n} != d_{n}^2/d_{n - 1}^2")
    return out


def suite_difference_equation() -> SuiteResult:
    out = SuiteResult("difference-equation")
    for fam in _sample_families():
        for n in range(_max_n(fam, 8) + 1):
            lam = fam.lambda_n(n)
            for x in range(0, n + 4):
                xf = Fraction(x)
                residual = (fam.sigma(xf) * (fam.eval_poly(n, xf + 1)
                                             - 2 * fam.eval_poly(n, xf)
                                             + fam.eval_poly(n, xf - 1))
                            + fam.tau(xf) * fam.forward_diff(n, xf)
                            + lam * fam.eval_poly(n, xf))
                out.check(residual == 0,
                          f"{fam}: difference equation residual {residual} at n={n}, x={x}")
    return out


def suite_ladder() -> SuiteResult:
    out = SuiteResult("ladder")
    for fam in _sample_families():
        for n in range(1, _max_n(fam, 8) + 1):
            target, factor = fam.ladder_target(n)
            for x in range(0, 11):
                xf = Fraction(x)
                out.check(fam.forward_diff(n, xf) == factor * target.eval_poly(n - 1, xf),
                          f"{fam}: ladder mismatch at n={n}, x={x}")
        # the structure relation P_m = Q_m + e_m Q_(m-1) + f_m Q_(m-2) that
        # the Gram recurrence of expansion runs on, Q the ladder target's
        # polynomials
        target, _ = fam.ladder_target(1)
        for m in range(1, _max_n(target, 8) + 1):
            en, ed, fn, fd = fam.structure_pair(m)
            for x in range(0, 11):
                xf = Fraction(x)
                q = [target.eval_poly(k, xf) if k >= 0 else 0 for k in (m, m - 1, m - 2)]
                out.check(fam.eval_poly(m, xf) == q[0] + Fraction(en, ed) * q[1]
                          + Fraction(fn, fd) * q[2],
                          f"{fam}: structure relation mismatch at m={m}, x={x}")
    return out


def suite_orthogonality() -> SuiteResult:
    out = SuiteResult("orthogonality")
    # bounded supports: bit-exact
    bounded = [Kravchuk(Fraction(1, 4), 8), Kravchuk(Fraction(2, 3), 8),
               Hahn(Fraction(0), Fraction(0), 9), Hahn(Fraction(3), Fraction(-1, 2), 9),
               Hahn(Fraction(1), Fraction(2), 9)]
    for fam in bounded:
        top = _max_n(fam, 8)
        for n in range(top + 1):
            for m in range(n, top + 1):
                total = sum(fam.reduced_weight(x)
                            * fam.eval_poly(n, Fraction(x)) * fam.eval_poly(m, Fraction(x))
                            for x in fam.support().points())
                expect = fam.reduced_norm(n).rational if n == m else Fraction(0)
                out.check(total == expect,
                          f"{fam}: orthogonality sum off at n={n}, m={m}: {total} != {expect}")
        # from the last support point on, the quadrature row is the weight's
        # closed form, normalised, and not read from sigma and tau
        weights = [fam.reduced_weight(x) for x in fam.support().points()]
        mass = sum(weights)
        for k in (len(weights) - 1, len(weights) + 3):
            row, den = fam.quadrature_row(k)
            out.check([Fraction(c, den) for c in row] == [w / mass for w in weights],
                      f"{fam}: quadrature row at k={k} is not the normalised weight")
    # infinite supports: exact, through the quadrature row
    for fam in (Charlier(Fraction(2)), Meixner(Fraction(3, 2), Fraction(1, 2))):
        mass = fam.reduced_norm(0)
        for n in range(7):
            for m in range(n, 7):
                total = _inner(fam, n, m)
                expect = fam.reduced_norm(n).exact_ratio(mass) if n == m else 0
                out.check(total == expect,
                          f"{fam}: orthogonality sum off at n={n}, m={m}: {total} != {expect}")
    return out


def suite_rakhmanov() -> SuiteResult:
    out = SuiteResult("rakhmanov")
    # bounded: normalization is exact, density nonnegative
    for fam in [Kravchuk(Fraction(1, 2), 3), Hahn(Fraction(0), Fraction(0), 5)]:
        for n in range(_max_n(fam, 3) + 1):
            masses = [rakhmanov_density(fam, n, x) for x in fam.support().points()]
            out.check(all(v >= 0 for v in masses), f"{fam}: negative density at n={n}")
            out.check(sum(masses) == 1, f"{fam}: density sum != 1 at n={n}")
    # infinite: normalization is exact through the quadrature row
    for fam in (Charlier(Fraction(2)), Meixner(Fraction(3, 2), Fraction(1, 2))):
        for n in range(4):
            total = _inner(fam, n, n) * fam.reduced_norm(0).exact_ratio(fam.reduced_norm(n))
            out.check(total == 1, f"{fam}: density sum {total} != 1 at n={n}")
            out.check(rakhmanov_density(fam, n, 1) >= 0,
                      f"{fam}: negative density, n={n}")
    # zero iff n = 0, every family and route
    for fam in _sample_families():
        for n in range(_max_n(fam, 3) + 1):
            values = [fisher_expansion(fam, n), fisher_closed(fam, n),
                      fisher_direct(fam, n), fisher_difference(fam, n)]
            for value in values:
                if n == 0:
                    out.check(value == 0, f"{fam}: nonzero route value {value} at n=0")
                else:
                    out.check(value > 0, f"{fam}: route value {value} not > 0 at n={n}")
    return out


def suite_three_way() -> SuiteResult:
    out = SuiteResult("three-way")
    families = []
    for N in (2, 5, 9):
        for p in (Fraction(1, 4), Fraction(2, 3)):
            families.append(Kravchuk(p, N))
        for al, be in ((Fraction(0), Fraction(0)), (Fraction(3), Fraction(-1, 2))):
            families.append(Hahn(al, be, N))
    families += [Charlier(Fraction(1, 2)), Charlier(Fraction(7, 3)),
                 Meixner(Fraction(3, 2), Fraction(1, 2)), Meixner(Fraction(4), Fraction(9, 10))]
    for fam in families:
        for n in range(_max_n(fam, 10) + 1):
            direct = fisher_direct(fam, n)
            difference = fisher_difference(fam, n)
            expansion = fisher_expansion(fam, n)
            out.check(direct == difference == expansion,
                      f"{fam}: routes disagree at n={n}: "
                      f"{direct} / {difference} / {expansion}")
    return out


def suite_charlier() -> SuiteResult:
    out = SuiteResult("charlier")
    for mu in (Fraction(1, 2), Fraction(2)):
        fam = Charlier(mu)
        for n in range(1, 11):
            law = Fraction(n) / mu
            out.check(fisher_expansion(fam, n) == law,
                      f"{fam}: expansion != n/mu at n={n}")
            out.check(fisher_closed(fam, n) == law,
                      f"{fam}: closed form != n/mu at n={n}")
            out.check(fisher_direct(fam, n) == law,
                      f"{fam}: direct sum != n/mu at n={n}")
            out.check(fisher_difference(fam, n) == law,
                      f"{fam}: difference route != n/mu at n={n}")
    return out


def suite_closed_form() -> SuiteResult:
    out = SuiteResult("closed-form")
    for gamma in (Fraction(3, 2), Fraction(4)):
        for mu in (Fraction(1, 4), Fraction(3, 4)):
            fam = Meixner(gamma, mu)
            for n in range(11):
                out.check(fisher_closed(fam, n) == fisher_expansion(fam, n),
                          f"{fam}: closed form != expansion at n={n}")
    for p in (Fraction(1, 4), Fraction(1, 2)):
        for N in (6, 10):
            fam = Kravchuk(p, N)
            for n in range(N):
                out.check(fisher_closed(fam, n) == fisher_expansion(fam, n),
                          f"{fam}: closed form != expansion at n={n}")
    return out


def suite_hahn_closed_form() -> SuiteResult:
    out = SuiteResult("hahn-closed-form")
    grids = [(Fraction(0), Fraction(0)), (Fraction(3), Fraction(-1, 2)),
             (Fraction(1), Fraction(2))]
    for al, be in grids:
        fam = Hahn(al, be, 8)
        for n in range(1, 8):
            out.check(fisher_closed(fam, n) == fisher_expansion(fam, n),
                      f"{fam}: closed form != expansion at n={n}")
    return out


def suite_asymptotes() -> SuiteResult:
    out = SuiteResult("asymptotes")
    # top-degree closed value is exact
    for N in range(2, 11):
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)):
            out.check(asymptotics.kravchuk_max_degree(N, p)
                      == fisher_expansion(Kravchuk(p, N), N - 1),
                      f"kravchuk top-degree value off at N={N}, p={p}")
    # sampled one-sided approach: |exact/asymptote - 1| decreases along each sequence
    def gaps(pairs):
        return [abs(float(exact) / float(asym) - 1) for exact, asym in pairs]

    seq = gaps([(fisher_expansion(Meixner(Fraction(2), mu), 2),
                 asymptotics.meixner_mu_to_zero(Fraction(2), 2, mu))
                for mu in (Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10000))])
    out.check(seq[0] > seq[1] > seq[2], f"meixner mu->0 approach not monotone: {seq}")
    seq = gaps([(fisher_expansion(Meixner(Fraction(3, 2), mu), 2),
                 asymptotics.meixner_mu_to_one(Fraction(3, 2), 2, mu))
                for mu in (Fraction(9, 10), Fraction(99, 100), Fraction(999, 1000))])
    out.check(seq[0] > seq[1] > seq[2], f"meixner mu->1 approach not monotone: {seq}")
    seq = gaps([(fisher_expansion(Meixner(g, Fraction(1, 4)), 2),
                 asymptotics.meixner_gamma_to_infinity(2, Fraction(1, 4), g))
                for g in (Fraction(100), Fraction(1000), Fraction(10000))])
    out.check(seq[0] > seq[1] > seq[2], f"meixner gamma->inf approach not monotone: {seq}")
    seq = gaps([(fisher_expansion(Meixner(g, Fraction(1, 4)), 2),
                 asymptotics.meixner_gamma_to_zero(2, Fraction(1, 4), g))
                for g in (Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10000))])
    out.check(seq[0] > seq[1] > seq[2], f"meixner gamma->0 approach not monotone: {seq}")
    seq = gaps([(fisher_expansion(Kravchuk(p, 15), 2),
                 asymptotics.kravchuk_p_to_zero(2, 15, p))
                for p in (Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10000))])
    out.check(seq[0] > seq[1] > seq[2], f"kravchuk p->0 approach not monotone: {seq}")
    out.check(seq[-1] < 0.01, f"kravchuk p->0 gap at p=1e-4 not within 1%: {seq[-1]}")
    seq = gaps([(fisher_expansion(Kravchuk(p, 15), 2),
                 asymptotics.kravchuk_p_to_one(2, 15, p))
                for p in (Fraction(9, 10), Fraction(99, 100), Fraction(999, 1000))])
    out.check(seq[0] > seq[1] > seq[2], f"kravchuk p->1 approach not monotone: {seq}")
    # degree asymptote: n^2 (exact - asym) lies in (0, c2], approaching c2 from below
    for gamma, mu in ((Fraction(3, 2), Fraction(1, 4)), (Fraction(4), Fraction(1, 4)),
                      (Fraction(3, 2), Fraction(1, 7))):
        cap = asymptotics.meixner_large_n_second_order(gamma, mu)
        for n in (10, 50, 100, 200):
            gap = n * n * (fisher_expansion(Meixner(gamma, mu), n)
                           - asymptotics.meixner_large_n(gamma, mu, n))
            out.check(0 < gap <= cap,
                      f"meixner degree asymptote off at gamma={gamma}, mu={mu}, "
                      f"n={n}: n^2 gap {float(gap)} not in (0, {cap}]")
    return out


SUITES: Dict[str, Callable[[], SuiteResult]] = {
    "numerics": suite_numerics,
    "weight-ratio": suite_weight_ratio,
    "recurrence-norms": suite_recurrence_norms,
    "difference-equation": suite_difference_equation,
    "ladder": suite_ladder,
    "orthogonality": suite_orthogonality,
    "rakhmanov": suite_rakhmanov,
    "three-way": suite_three_way,
    "charlier": suite_charlier,
    "closed-form": suite_closed_form,
    "hahn-closed-form": suite_hahn_closed_form,
    "asymptotes": suite_asymptotes,
}


def run_suites(names: Optional[List[str]] = None) -> List[SuiteResult]:
    chosen = list(SUITES) if not names else names
    unknown = [n for n in chosen if n not in SUITES]
    if unknown:
        raise KeyError(f"unknown suites {unknown}; available: {list(SUITES)}")
    return [SUITES[name]() for name in chosen]
