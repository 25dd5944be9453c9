"""Relative Fisher information of a discrete family, by four routes.

For the degree-n monic polynomial P_n orthogonal on an integer lattice with
weight w and norm d_n^2, the quantity computed here is

    I = (1/d_n^2) * sum_x w(x) [P_n(x+1) - P_n(x)]^2 .

Routes:

* ``direct``     -- the defining sum, taken as the moment sum below of
                    Delta P_n(x)^2;
* ``difference`` -- summation by parts: d_n^2 (I + 1) is sum_x w(x-1) P_n(x)^2
                    plus, on a bounded support a..b, the boundary term
                    w(b) P_n(b+1)^2.  With w(a-1) = 0 the two are one sum,
                    sum_y w(y) P_n(y+1)^2, the moment sum of the shifted
                    polynomial, so the boundary term is inside it;
* ``expansion``  -- Delta P_n expanded back in the same family, giving
                    (1/d_n^2) sum_j a_j^2 d_j^2.  The a_j are an integer row
                    over one denominator, from Delta applied to the
                    three-term recurrence (Charlier, Meixner and Kravchuk
                    supply their O(n) ladder products instead), and
                    d_j^2/d_n^2 comes from the recurrence's b_m, so the route
                    runs on integers and reduces only its result.  This is
                    the authoritative exact value;
* ``closed``     -- the per-family closed forms, exact for all four families.
                    The one non-terminating 3F2 at -1 in the Hahn form
                    telescopes to the rational n/(2n+s+1), s = alpha+beta.

A polynomial is summed against the weight in closed form on every lattice:
x^k = sum_j S(k, j) x(x-1)...(x-j+1), with S the Stirling numbers of the
second kind, turns its monomials into falling factorials, whose weighted sums
the family supplies as factorial moments (``Family.factorial_moments``) of
the Poisson, Pascal, binomial and hypergeometric weights, and keeps as raw
moments (``Family.moment_row``) for every later call.  The weight's total
mass, ``reduced_norm(0)`` (e^mu and (1-mu)^-gamma on the infinite lattices),
cancels exactly against the norm: d_0^2/d_n^2 is 1/(b_1 ... b_n), from the
three-term recurrence.  So every route returns an exact Fraction for
rational parameters, at a cost set by the degree and not by the lattice
size.  This path uses monomial coefficients, moments and the recurrence's
b_m only, no ladder and no connection coefficients, so it stays independent
of ``expansion``'s connection rows.

The four agree bit-exactly, which is the main self-check of the package.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, Optional

from .families import Family, OutOfSupport, diff_coeffs, shift_coeffs
from .numerics import (
    DEFAULT_DPS,
    DenominatorPole,
    over_common_denominator,
    to_mpf,
)


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


def moment_sum(fam: Family, p, q) -> Fraction:
    """sum_x w(x) p(x) q(x) / sum_x w(x) over the family's support, exact, for
    polynomials given by their exact monomial coefficients (ints or Fractions).

    The product's coefficients c_k meet the family's raw moments
    sum_j S(k, j) m_j (``Family.moment_row``), with m_j its factorial moments
    and S(k, j) the Stirling numbers of the second kind.  Everything runs on
    integers over one common denominator.
    """
    pn, pd = over_common_denominator(p)
    qn, qd = over_common_denominator(q)
    product = [0] * (len(pn) + len(qn) - 1)
    for i, a in enumerate(pn):
        if a:
            for j, b in enumerate(qn):
                product[i + j] += a * b
    moments, md = fam.moment_row(len(product) - 1)
    return Fraction(sum(c * m for c, m in zip(product, moments)), pd * qd * md)


def _norm_ratio(fam: Family, n: int, den: int) -> Fraction:
    """(d_0^2/d_n^2) / den^2, with d_0^2/d_n^2 = 1/(b_1 ... b_n) from the
    recurrence: one integer product of the b_m's numerators and one of their
    denominators, reduced once.  The norms themselves would build products
    of length N on Kravchuk and Hahn that cancel down to these n factors."""
    b = fam.recurrence_b_upto(n + 1)[1:n + 1]
    return Fraction(math.prod(x.denominator for x in b),
                    math.prod(x.numerator for x in b) * den * den)


def fisher_direct(fam: Family, n: int) -> Fraction:
    """Defining sum: the moment sum of Delta P_n(x)^2, an exact Fraction."""
    nums, den = fam.poly_row(n)   # P_n(x) = sum_k nums[k] x^k / den
    dp = diff_coeffs(nums)
    return moment_sum(fam, dp, dp) * _norm_ratio(fam, n, den)


def fisher_difference(fam: Family, n: int) -> Fraction:
    """Summation-by-parts route:

        I = (1/d_n^2) ( [w(x-1) P_n(x)^2]_a^b + <w(x-1)/w(x)> ) - 1,

    with the expectation over the degree-n density and the convention
    w(a-1) = 0.  Since w(x) P_n(x)^2 w(x-1)/w(x) = w(x-1) P_n(x)^2, the
    expectation plus the upper boundary term w(b) P_n(b+1)^2 of a bounded
    support is sum_y w(y) P_n(y+1)^2 (on an infinite support the boundary
    term vanishes), which is the moment sum of the shifted polynomial.
    """
    nums, den = fam.poly_row(n)
    shifted = shift_coeffs(nums, 1)
    return moment_sum(fam, shifted, shifted) * _norm_ratio(fam, n, den) - 1


def fisher_expansion(fam: Family, n: int) -> Fraction:
    """Ladder route: exact rational for every family with rational parameters.

    I = sum_j a_j^2 d_j^2/d_n^2, with the a_j from ``connection_row`` and each
    norm ratio taken from the recurrence (d_j^2/d_(j-1)^2 = b_j), summed in
    Horner form: T_0 = a_0^2, T_j = T_(j-1)/b_j + a_j^2 and I = T_(n-1)/b_n.
    T runs as one integer numerator/denominator pair over the row's
    denominator squared, and only the result is reduced.
    """
    cn, cd = fam.connection_row(n)
    if n == 0:
        return Fraction(0)
    b = fam.recurrence_b_upto(n + 1)
    tn, td = cn[0] * cn[0], 1
    for j in range(1, n):
        bn, bd = b[j].numerator, b[j].denominator
        tn = tn * bd + cn[j] * cn[j] * td * bn
        td *= bn
    return Fraction(tn * b[n].denominator, td * b[n].numerator * cd * cd)


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
    fam.check_degree(n)
    weight = fam.reduced_weight(x)  # raises OutOfSupport
    p = fam.eval_poly(n, Fraction(x))
    numerator = weight * p * p
    norm = fam.reduced_norm(n)
    if fam.support().b is not None:
        return numerator / norm.rational
    import mpmath
    with mpmath.workdps(dps):
        return to_mpf(numerator) / norm.to_float(dps)


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
