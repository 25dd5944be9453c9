"""Relative Fisher information of a discrete family, by four routes.

For the degree-n monic polynomial P_n orthogonal on an integer lattice with
weight w and norm d_n^2, the quantity computed here is

    I = (1/d_n^2) * sum_x w(x) [P_n(x+1) - P_n(x)]^2 .

Routes:

* ``direct``     -- the defining sum (exact over bounded supports, truncated
                    under the big-float backend otherwise);
* ``difference`` -- the summation-by-parts identity coming from the family's
                    second-order difference equation, which trades the sum for
                    a boundary term plus an expectation of the weight ratio;
* ``expansion``  -- Delta P_n expanded back in the same family, giving
                    (1/d_n^2) sum_j a_j^2 d_j^2.  The a_j come from Delta
                    applied to the three-term recurrence (Charlier, Meixner
                    and Kravchuk use their O(n) ladder products instead), and
                    d_j^2/d_n^2 from the recurrence's b_m, so the route runs
                    on rational arithmetic alone.  This is the authoritative
                    exact value;
* ``closed``     -- the per-family closed forms.  Charlier, Meixner and
                    Kravchuk are exact; the Hahn form contains one
                    non-terminating 3F2 at -1 that is Euler-accelerated and
                    reported with a convergence flag.

The four agree bit-exactly wherever they are all exact, which is the main
self-check of the package.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, Optional

import mpmath
from mpmath import mpf

from .families import Family, OutOfSupport, diff_coeffs, shift_coeffs
from .numerics import (
    DEFAULT_ACCEL_TOL,
    DEFAULT_DPS,
    DenominatorPole,
    Scalar,
    rel_gap,
    to_mpf,
)


class Method(enum.Enum):
    DIRECT = "direct"
    DIFFERENCE = "difference"
    EXPANSION = "expansion"
    CLOSED = "closed"


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


class TruncationCapExceeded(RuntimeError):
    """The truncated sum hit the hard cap before meeting its tail tolerance."""


# ---------------------------------------------------------------------------
# Truncated summation over infinite supports
# ---------------------------------------------------------------------------


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


def truncated_weighted_square_sum(fam: Family, coeffs, trunc: TruncationPolicy,
                                  dps: int = DEFAULT_DPS) -> mpf:
    """sum_{x>=0} w(x) q(x)^2 for the polynomial q given by exact coefficients.

    The sum stops once x clears every root of q and the geometric majorant
    t(x) * Q/(1-Q), with Q bounding every later term ratio, drops below
    ``tail_tol`` relative to the running sum.
    """
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


def fisher_direct(fam: Family, n: int, trunc: TruncationPolicy = DEFAULT_TRUNCATION,
                  *, dps: int = DEFAULT_DPS):
    """Defining sum; exact Fraction on bounded supports, mpf otherwise."""
    fam.check_degree(n)
    sup = fam.support()
    if sup.b is not None:
        # P_n on a..b, one point past the support: Delta P_n(x) = vals[i+1] - vals[i]
        vals = fam.eval_points(n, range(sup.a, sup.b + 1))
        num = sum(w * (vals[i + 1] - vals[i]) ** 2
                  for i, w in enumerate(fam.lattice_weights()))
        return num / fam.reduced_norm(n).rational
    if n == 0:
        return Fraction(0)
    total = truncated_weighted_square_sum(fam, diff_coeffs(fam.poly_coeffs(n)),
                                          trunc, dps)
    with mpmath.workdps(dps):
        return total / fam.reduced_norm(n).to_float(dps)


def fisher_difference(fam: Family, n: int, trunc: TruncationPolicy = DEFAULT_TRUNCATION,
                      *, dps: int = DEFAULT_DPS):
    """Summation-by-parts route:

        I = (1/d_n^2) ( [w(x-1) P_n(x)^2]_a^b + <w(x-1)/w(x)> ) - 1,

    with the expectation over the degree-n density and the convention
    w(a-1) = 0.  The upper boundary term is nonzero for bounded supports and
    must not be dropped.  The weight ratio comes from its closed form, so the
    support edges where the sigma/tau quotient would be 0/0 are never touched.
    """
    fam.check_degree(n)
    sup = fam.support()
    norm = fam.reduced_norm(n)
    if sup.b is not None:
        vals = fam.eval_points(n, range(sup.a, sup.b + 1))  # P_n on a..b
        weights = fam.lattice_weights()
        boundary = weights[-1] * vals[-1] ** 2
        expect = sum(weights[i] * vals[i] ** 2 * fam.weight_ratio(sup.a + i)
                     for i in range(1, len(weights)))
        return (boundary + expect) / norm.rational - 1
    if n == 0:
        # Delta P_0 = 0 identically; skip the truncation residue
        return Fraction(0)
    # w(x) P_n(x)^2 w(x-1)/w(x) = w(x-1) P_n(x)^2, i.e. a weighted square sum
    # of the shifted polynomial; the boundary term vanishes at infinity.
    shifted = shift_coeffs(fam.poly_coeffs(n), 1)
    total = truncated_weighted_square_sum(fam, shifted, trunc, dps)
    with mpmath.workdps(dps):
        return total / norm.to_float(dps) - 1


def fisher_expansion(fam: Family, n: int) -> Fraction:
    """Ladder route: exact rational for every family with rational parameters.

    I = sum_j a_j^2 d_j^2/d_n^2, with a_j from ``connection_coeffs`` and each
    norm ratio taken from the recurrence (d_j^2/d_(j-1)^2 = b_j) as the
    running product 1/(b_(j+1) ... b_n), accumulated from j = n-1 down to 0.
    """
    fam.check_degree(n)
    total = Fraction(0)
    ratio = Fraction(1)
    coeffs = fam.connection_coeffs(n)
    b = fam.recurrence_b_upto(n + 1)
    for j in range(n - 1, -1, -1):
        ratio /= b[j + 1]
        total += coeffs[j] * coeffs[j] * ratio
    return total


def fisher_closed(fam: Family, n: int, *, dps: int = DEFAULT_DPS,
                  accel_tol: Scalar = DEFAULT_ACCEL_TOL):
    """Per-family closed form; returns (value, converged).

    Charlier: n/mu.  Meixner and Kravchuk: a prefactor times a terminating
    2F1, exact.  Hahn: a sum of three factor products in which one 3F2 at -1
    does not terminate; it is Euler-accelerated and its convergence flag is
    passed through (the value is still reported when the flag is False).
    """
    fam.check_degree(n)
    if n == 0:
        return Fraction(0), True
    return fam.closed_form(n, dps, accel_tol)


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
    with mpmath.workdps(dps):
        return to_mpf(numerator) / norm.to_float(dps)


_COMPUTE_ERRORS = (DenominatorPole, TruncationCapExceeded, OutOfSupport,
                   ZeroDivisionError, OverflowError)


@dataclass
class FisherReport:
    """Values of every requested route plus their worst pairwise discrepancy."""

    family: Family
    degree: int
    values: Dict[Method, Scalar]
    errors: Dict[Method, str]
    max_pairwise_rel_discrepancy: Optional[mpf]
    hahn_c3_converged: Optional[bool]


def fisher_report(fam: Family, n: int, trunc: TruncationPolicy = DEFAULT_TRUNCATION,
                  *, dps: int = DEFAULT_DPS, methods=None) -> FisherReport:
    """Run the requested routes (default: all four) and cross-compare.

    Per-route computational failures are recorded without aborting the
    remaining routes; degree/domain violations raise.
    """
    fam.check_degree(n)
    chosen = tuple(methods) if methods else tuple(Method)
    values: Dict[Method, Scalar] = {}
    errors: Dict[Method, str] = {}
    flag = None
    for method in chosen:
        try:
            if method is Method.DIRECT:
                values[method] = fisher_direct(fam, n, trunc, dps=dps)
            elif method is Method.DIFFERENCE:
                values[method] = fisher_difference(fam, n, trunc, dps=dps)
            elif method is Method.EXPANSION:
                values[method] = fisher_expansion(fam, n)
            elif method is Method.CLOSED:
                value, converged = fisher_closed(fam, n, dps=dps)
                values[method] = value
                if not fam.exact_closed_form:
                    flag = converged
        except _COMPUTE_ERRORS as exc:
            errors[method] = f"{type(exc).__name__}: {exc}"
    discrepancy = None
    if len(values) >= 2:
        discrepancy = max(rel_gap(a, b, dps)
                          for a, b in combinations(values.values(), 2))
    return FisherReport(fam, n, values, errors, discrepancy, flag)
