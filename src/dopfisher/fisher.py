"""Relative Fisher information of a discrete family, by four routes.

For the degree-n monic polynomial P_n orthogonal on an integer lattice with
weight w and norm d_n^2, the quantity computed here is

    I = (1/d_n^2) * sum_x w(x) [P_n(x+1) - P_n(x)]^2 .

Routes:

* ``direct``     -- the defining sum, Delta P_n(x)^2 against the quadrature
                    row below;
* ``difference`` -- summation by parts: d_n^2 (I + 1) is sum_x w(x-1) P_n(x)^2
                    plus, on a bounded support a..b, the boundary term
                    w(b) P_n(b+1)^2.  With w(a-1) = 0 the two are one sum,
                    sum_y w(y) P_n(y+1)^2, the shifted polynomial against the
                    same row, so the boundary term is inside it;
* ``expansion``  -- Delta P_n expanded back in the same family, giving
                    (1/d_n^2) sum_j a_j^2 d_j^2.  With Delta P_n = n Q_(n-1)
                    this is n^2 ||Q_(n-1)||^2/d_n^2, and the second structure
                    relation P_m = Q_m + e_m Q_(m-1) + f_m Q_(m-2), Q the
                    ladder target's polynomials, gives ||Q_m||^2 by one Gram
                    recurrence in m, with no a_j and no norm built.  f_m has
                    the x^2 coefficient s2 of sigma as a factor, so on
                    Charlier, Meixner and Kravchuk (s2 = 0) it is one Horner
                    pass over the term ratios of the 2F1 closed forms, read
                    off sigma and tau as in the paper.  The authoritative
                    exact value;
* ``closed``     -- the per-family closed forms, exact for all four families.
                    The one non-terminating 3F2 at -1 in the Hahn form
                    telescopes to the rational n/(2n+s+1), s = alpha+beta.

Sums against the weight are closed-form on every lattice: the expectation of
a polynomial of degree at most k is one integer quadrature row, E c =
sum_x L_x c(x) / den over the nodes x = 0, 1, ... (``Family.quadrature_row``),
and the Pearson pair Delta(sigma w) = tau w of the weight gives it by one
recurrence in x, (sigma + tau)(x) L_x = sigma(x+1) L_(x+1) +
(-1)^(t-x) C(t,x) (sigma + tau)(t) from L_t = 1.  The difference equation
sigma Delta Nabla P_n + tau Delta P_n + lambda_n P_n = 0, on the same sigma
and tau, is a three-term recurrence in x, run on integers from the values at
0 and 1 (``_Tables.node_values``); those and the last node come from integer
Horner on P_n's falling-factorial coefficients, the one evaluator of P_n
anywhere else too (``Family.eval_points``, so the densities).
The mass ``reduced_norm(0)`` cancels against the norm,
d_0^2/d_n^2 = 1/(b_1 ... b_n), one product of b_m's unreduced factors.
``direct`` and ``difference`` share what degree n needs, kept as one slot
(``_Tables.degree``): the row at k = 2n, P_n at its nodes and that ratio as
one integer pair, so each is one dot product reduced once, an exact Fraction
at a cost set by the degree and not by the lattice size.  This path uses no
ladder and no structure pairs: on the ladder families, where ``expansion``
and ``closed`` sum the same terms, ``direct`` and ``difference`` remain the
independent check.

The four agree bit-exactly, which is the main self-check of the package.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Dict, Optional

from .families import Family, OutOfSupport, _tables
from .numerics import DEFAULT_DPS, DenominatorPole, horner_ratio_sum, to_mpf


class Method(enum.Enum):
    DIRECT = "direct"
    DIFFERENCE = "difference"
    EXPANSION = "expansion"
    CLOSED = "closed"


# ---------------------------------------------------------------------------
# Truncated summation over infinite supports; no route calls it
# ---------------------------------------------------------------------------


# Kept for bench/selftest.py, which imports it; ROADMAP item 3 deletes it.
@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rule for sums over infinite supports.

    Summation stops at the first lattice point where a rigorous geometric
    majorant of the tail falls below ``tail_tol`` relative to the running
    sum; reaching ``hard_cap`` first is an error.
    """

    tail_tol: Fraction = Fraction(1, 10**30)
    hard_cap: int = 10**6


DEFAULT_TRUNCATION = TruncationPolicy()


# Kept for bench/selftest.py, which imports it; ROADMAP item 3 deletes it.
class TruncationCapExceeded(RuntimeError):
    """The truncated sum hit the hard cap before meeting its tail tolerance."""


def _root_bound(coeffs) -> float:
    """Fujiwara-style bound: every root satisfies |z| < bound.

    2 * max_i |c_(d-i)/c_d|^(1/i), plus one for float slack.  Much tighter
    than the plain Cauchy bound when the roots are spread out, which is what
    keeps the truncated sums short.
    """
    lead = coeffs[-1]
    degree = len(coeffs) - 1
    best = 0.0
    for i in range(1, degree + 1):
        c = coeffs[degree - i]
        if c:
            ratio = abs(c / lead)
            try:
                value = float(ratio) ** (1.0 / i)
            except OverflowError:
                bits = ratio.numerator.bit_length() - ratio.denominator.bit_length() + 1
                value = 2.0 ** (bits / i)
            if value > best:
                best = value
    return 2.0 * best + 1.0


# Kept for bench/tracer.py, which wraps it by name; ROADMAP item 3 deletes it.
def truncated_weighted_square_sum(fam: Family, coeffs,
                                  trunc: TruncationPolicy = DEFAULT_TRUNCATION,
                                  dps: int = DEFAULT_DPS) -> "mpmath.mpf":
    """sum_{x>=0} w(x) q(x)^2 for the polynomial q given by exact coefficients.

    The sum stops once x clears every root of q and the geometric majorant
    t(x) * Q/(1-Q), with Q bounding every later term ratio, drops below
    ``tail_tol`` relative to the running sum.
    """
    import mpmath
    from mpmath import mpf
    coeffs = tuple(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if not any(coeffs):
        return mpf(0)
    deg = len(coeffs) - 1
    root_bound = _root_bound(coeffs)
    work = dps + 25 + deg
    with mpmath.workdps(work):
        cs = [to_mpf(c) for c in coeffs]
        tol = to_mpf(trunc.tail_tol)
        weight = to_mpf(fam.reduced_weight(0))
        total = mpf(0)
        x = 0
        while x < trunc.hard_cap:
            q = cs[-1]
            for c in reversed(cs[:-1]):
                q = q * x + c
            term = weight * q * q
            total += term
            if x > root_bound and term > 0:
                rho = to_mpf(fam.tail_ratio_bound(x))
                poly_growth = (mpf(x + 1 - root_bound) / (x - root_bound)) ** (2 * deg)
                ratio_cap = rho * poly_growth
                if ratio_cap < 1 and term * ratio_cap / (1 - ratio_cap) <= tol * total:
                    with mpmath.workdps(dps):
                        return +total
            weight *= to_mpf(1 / fam.weight_ratio(x + 1))  # w(x+1) = w(x)/ratio(x+1)
            x += 1
    raise TruncationCapExceeded(
        f"{fam.tag}: no convergence within {trunc.hard_cap} lattice points")


# ---------------------------------------------------------------------------
# The four routes
# ---------------------------------------------------------------------------


def fisher_direct(fam: Family, n: int) -> Fraction:
    """Defining sum: sum_x L_x Delta P_n(x)^2 over the quadrature row L at
    k = 2n, from P_n at its nodes, times d_0^2/d_n^2 (``_Tables.degree``),
    an exact Fraction."""
    fam.check_degree(n)
    row, v, num, den = _tables(fam).degree(n)
    t = sum(map(mul, row, [(b - a) ** 2 for a, b in zip(v, v[1:])]))
    return Fraction(num * t, den)


def fisher_difference(fam: Family, n: int) -> Fraction:
    """Summation-by-parts route:
        I = (1/d_n^2) ( [w(x-1) P_n(x)^2]_a^b + <w(x-1)/w(x)> ) - 1,
    with the expectation over the degree-n density and the convention
    w(a-1) = 0.  Since w(x) P_n(x)^2 w(x-1)/w(x) = w(x-1) P_n(x)^2, the
    expectation plus the upper boundary term w(b) P_n(b+1)^2 of a bounded
    support (none on an infinite one) is sum_y w(y) P_n(y+1)^2: L_x P_n(x+1)^2
    summed over the quadrature row L at k = 2n, as in ``direct``."""
    fam.check_degree(n)
    row, v, num, den = _tables(fam).degree(n)
    t = sum(map(mul, row, [x * x for x in v[1:]]))
    return Fraction(num * t, den) - 1


def fisher_expansion(fam: Family, n: int) -> Fraction:
    """Expansion route, exact for every family with rational parameters.
    Delta P_n = n Q_(n-1), Q the monic polynomials of ``ladder_target``, so
    I_n = n^2 g_(n-1)/b_n with g_m = <Q_m,Q_m>/d_m^2 against the family's own
    weight.  The second structure relation P_m = Q_m + e_m Q_(m-1) +
    f_m Q_(m-2) (``Family.structure_pair``) gives, with h_m =
    <Q_m,Q_(m-1)>/d_m^2 and u_m = g_(m-1)/b_m, from g_0 = 1 and h_0 = 0,
        h_m = -(e_m g_(m-1) + f_m h_(m-1))/b_m,
        g_m = 1 + (e_m^2 g_(m-1) + 2 e_m f_m h_(m-1) + f_m^2 u_(m-1))/b_m,
    on Hahn over b_m, e_m, f_m built as it steps (``_Tables.coefficients``),
    on integers over one denominator, every step big times small.  The state
    (m, g, h, u, d) before step m = n is kept with the family's tables, and a
    later call goes on from it if its degree is at least m, else starts
    again, so a rising degree sweep takes each step once.  Where s2, the x^2
    coefficient of sigma, is 0 (Charlier, Meixner and Kravchuk), f_m = 0 and
    sigma(0) = 0 (``_Tables``) leave g_m = 1 + r_m g_(m-1) with r_m =
    e_m^2/b_m = m (s1+t1)^2/(s1 phi(m-1)), the term ratio of the 2F1 closed
    forms, and I_n = n t1^2 g_(n-1)/(s1 phi(n-1)): one Horner pass over small
    integer pairs read off ``Family.pearson_pair``, free of its integer scale,
    with no table looked up.  Either way the sum is reduced once.
    """
    fam.check_degree(n)
    if n == 0:
        return Fraction(0)
    _, s1, s2, t0, t1, _ = fam.pearson_pair()
    if s2 == 0:
        # r_m = m c^2/(s1 phi(m-1)), c = s1 + t1, with the factors common to
        # every m taken out once: k = gcd(c, t0) of phi(m-1) = c (m-1) + t0,
        # then gcd(c^2/k, s1); every pair is (0, 1) on Charlier, where c = 0
        c = s1 + t1
        scale = Fraction(n * t1 * t1, s1 * (c * (n - 1) + t0))
        k = math.gcd(c, t0)
        a, t0 = c // k, t0 // k
        k = math.gcd(c * a, s1)
        top, s1 = c * a // k, s1 // k
        return scale * horner_ratio_sum((m * top, s1 * (a * (m - 1) + t0)) for m in range(1, n))
    # go on from the state the last call kept if it is not past n, else
    # start again from g_0 = 1 and h_0 = 0 before step 1
    tables = _tables(fam)
    state = tables.kept_gram
    start, g, h, u, d = state if state[0] <= n else (1, 1, 0, 0, 1)
    for m in range(start, n):
        (bn, bd), (e, ed, f, fd) = tables.coefficients(m)
        # e = E/c and f = F/c over c = lcm(den e, den f); the new
        # denominator is d num(b_m) c^2
        c = math.lcm(ed, fd)
        e, f = e * (c // ed), f * (c // fd)
        eg_fh = e * g + f * h
        d *= bn * c * c
        g, h, u = d + bd * (e * eg_fh + f * (e * h + f * u)), -bd * c * eg_fh, bd * c * c * g
    tables.kept_gram = n, g, h, u, d
    bn, bd = tables.b_factors(n)
    return Fraction(n * n * g * bd, d * bn)


def fisher_closed(fam: Family, n: int) -> Fraction:
    """Per-family closed form, an exact Fraction.

    Charlier: n/mu.  Meixner and Kravchuk: a prefactor times a terminating
    2F1.  Hahn: a sum of three factor products, two with a terminating 5F4
    and one with a 3F2 at -1 whose terms telescope to n/(2n+s+1).
    """
    fam.check_degree(n)
    if n == 0:
        return Fraction(0)
    return fam.closed_form(n)


# ---------------------------------------------------------------------------
# Density and cross-method report
# ---------------------------------------------------------------------------


def rakhmanov_density(fam: Family, n: int, x: int, *, dps: int = DEFAULT_DPS):
    """Probability mass w(x) P_n(x)^2 / d_n^2.

    Exact Fraction for bounded supports.  For the infinite-support families
    the normalization constant is irrational, so the value is an mpf; the
    rational part is computed exactly and rounded once.
    """
    return next(rakhmanov_densities(fam, n, (x,), dps=dps))


def rakhmanov_densities(fam: Family, n: int, xs, *, dps: int = DEFAULT_DPS):
    """``rakhmanov_density`` at each point of the integer sequence xs, in
    order: the norm (rounded once on an infinite support) once, P_n in one
    ``eval_points`` call (one falling-factorial coefficient row, then integer
    Horner at each point), and the weight walked between adjacent points by
    w(x) = w(x-1)/weight_ratio(x), which raises OutOfSupport off the support.
    """
    values = fam.eval_points(n, xs)
    norm = fam.reduced_norm(n)
    bounded = fam.support().b is not None
    if not bounded:
        import mpmath
        scale = norm.to_float(dps)
    for i, (x, p) in enumerate(zip(xs, values)):
        adjacent = i and x == xs[i - 1] + 1
        weight = weight / fam.weight_ratio(x) if adjacent else fam.reduced_weight(x)
        if bounded:
            yield weight * p * p / norm.rational
        else:
            with mpmath.workdps(dps):
                value = to_mpf(weight * p * p) / scale
            yield value


_COMPUTE_ERRORS = (DenominatorPole, OutOfSupport,
                   ZeroDivisionError, OverflowError)


@dataclass
class FisherReport:
    """Values of every requested route plus their worst pairwise discrepancy
    |a - b| / max(|a|, |b|), exact (None with fewer than two values)."""

    family: Family
    degree: int
    values: Dict[Method, Fraction]
    errors: Dict[Method, str]
    max_pairwise_rel_discrepancy: Optional[Fraction]


def _rel_gap(a: Fraction, b: Fraction) -> Fraction:
    # equal values (the usual case, both zero included) cost one comparison
    if a == b:
        return Fraction(0)
    return abs(a - b) / max(abs(a), abs(b))


def fisher_report(fam: Family, n: int, *, methods=None) -> FisherReport:
    """Run the requested routes (default: all four) and cross-compare.

    Per-route computational failures are recorded without aborting the
    remaining routes; degree/domain violations raise.
    """
    fam.check_degree(n)
    chosen = tuple(methods) if methods else tuple(Method)
    values: Dict[Method, Fraction] = {}
    errors: Dict[Method, str] = {}
    for method in chosen:
        try:
            if method is Method.DIRECT:
                values[method] = fisher_direct(fam, n)
            elif method is Method.DIFFERENCE:
                values[method] = fisher_difference(fam, n)
            elif method is Method.EXPANSION:
                values[method] = fisher_expansion(fam, n)
            elif method is Method.CLOSED:
                values[method] = fisher_closed(fam, n)
        except _COMPUTE_ERRORS as exc:
            errors[method] = f"{type(exc).__name__}: {exc}"
    discrepancy = None
    if len(values) >= 2:
        discrepancy = max(_rel_gap(a, b) for a, b in combinations(values.values(), 2))
    return FisherReport(fam, n, values, errors, discrepancy)
