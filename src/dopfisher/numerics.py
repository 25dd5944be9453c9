"""Exact scalars and hypergeometric building blocks.

Every Fisher value and closed form is an exact rational (`fractions.Fraction`),
and a rational is printed as a decimal straight from its numerator and
denominator (``sweeps.format_scalar``), so no route and no rational output
needs big floats.  Big floats (`mpmath.mpf`, precision in decimal digits) are
computed in two places only, and mpmath is imported inside the functions that
compute them, never at package import: the infinite-lattice density, whose
normalisation is irrational (``fisher.rakhmanov_density``,
``families.NormValue.to_float``, printed by ``mpmath.nstr``); and the
truncated-sum engine and ``accelerated_pfq_at_minus_one`` (the iterated Euler
transformation of a pFq at -1), which no route calls; the benchmark harness
wraps them by name until ROADMAP item 3 restates it, and the ``numerics``
verify suite anchors the latter at ln 2.

The exact kernels run on integers and reduce once: ``pochhammer`` takes
(p/q)_k as prod (p + i q) over q^k, and ``terminating_pfq`` (and the Hahn
5F4 in ``families``) sums a terminating series in Horner form from its last
term, ``1 + r_0 (1 + r_1 (1 + ...))``, with every term ratio an integer pair
over one denominator per parameter set (``horner_ratio_sum``), so one
``Fraction`` is built per sum instead of one gcd per operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

#: Default decimal working precision of printed decimals and of the
#: infinite-lattice density.
DEFAULT_DPS = 80

#: Default relative tolerance for declaring an accelerated series converged.
DEFAULT_ACCEL_TOL = Fraction(1, 10**16)

Scalar = Union[int, Fraction]


class DenominatorPole(ArithmeticError):
    """A lower-parameter Pochhammer factor vanishes inside the summed range."""


class NonTerminatingSeries(ValueError):
    """No upper parameter is a nonpositive integer, so the series never ends."""


def to_fraction(x) -> Fraction:
    """Exact conversion of a Fraction, int or str to Fraction.

    Anything else is refused, floats included: ``0.1`` has no exact decimal
    meaning as a float, so parameters are passed as ``str`` ('1/10', '0.1')
    or ``Fraction``.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"{type(x).__name__} {x!r} is not exact; pass a str or a Fraction")


def to_mpf(x) -> "mpmath.mpf":
    """Convert a scalar to mpf at the current mpmath context precision."""
    from mpmath import mpf
    if isinstance(x, mpf):
        return +x
    if isinstance(x, int):
        return mpf(x)
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    return mpf(x)


def is_nonpositive_integer(x) -> bool:
    if isinstance(x, int):
        return x <= 0
    if isinstance(x, Fraction):
        return x.denominator == 1 and x <= 0
    return False


def pochhammer(a, k: int) -> Fraction:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1); (a)_0 = 1.

    Exact for int/Fraction input: with a = p/q, (a)_k = prod (p + i q) / q^k,
    an integer product reduced once.
    """
    if k < 0:
        raise ValueError("pochhammer order must be a nonnegative integer")
    p, q = a.numerator, a.denominator
    return Fraction(math.prod(range(p, p + k * q, q)), q ** k)


def over_common_denominator(values) -> Tuple[list, int]:
    """([v * den for v in values], den), den the lcm of the denominators of
    the exact rationals ``values``: integer work in place of one gcd per
    Fraction operation."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def horner_ratio_sum(ratios) -> Fraction:
    """1 + r_0 (1 + r_1 (1 + ... (1 + r_(m-1)))), the sum of the terms
    t_0 = 1, t_(k+1) = r_k t_k, as one integer numerator and denominator
    reduced once at the end.  ``ratios`` yields each r_k = rn_k/rd_k as an
    integer pair (rn_k, rd_k), rd_k != 0, from the last, k = m-1, down to
    k = 0, so the pairs are never held all at once."""
    num = den = 1
    for rn, rd in ratios:
        den *= rd
        num = den + rn * num
    return Fraction(num, den)


def shifted_products(nums, den: int, m: int):
    """prod (v + k den) over the integers v in ``nums`` (not empty), for
    k = m-1 down to 0: the numerators of prod (v/den + k) over den^len(nums),
    in the order ``horner_ratio_sum`` takes its ratios."""
    return map(math.prod, zip(*(range(v + (m - 1) * den, v - den, -den) for v in nums)))


@dataclass(frozen=True)
class PFQSpec:
    """A generalized hypergeometric series sum_k [prod (a_i)_k / prod (b_j)_k] z^k / k!."""

    numerator: Tuple[Scalar, ...]
    denominator: Tuple[Scalar, ...]
    argument: Scalar

    def termination_index(self) -> Optional[int]:
        """Smallest m with some upper parameter equal to -m, or None.

        When several upper parameters are nonpositive integers the series is
        a polynomial of the smallest such degree: all later terms carry a
        vanishing Pochhammer factor, so summing past m would only add zeros
        (or hit a removable 0/0 against a later lower-parameter pole).
        """
        lengths = [-int(a) for a in self.numerator if is_nonpositive_integer(a)]
        return min(lengths) if lengths else None


def terminating_pfq(spec: PFQSpec) -> Fraction:
    """Evaluate a terminating pFq exactly, as a Horner sum of its term ratios.

    With m the termination index and r_k = t_(k+1)/t_k the term ratio, the
    sum is 1 + r_0 (1 + r_1 (1 + ... (1 + r_(m-1)))).  The upper parameters
    are put over one integer denominator and the lower ones over another,
    so each r_k is an integer pair and only the result is reduced.
    Lower-parameter poles at or past the termination index are harmless
    (every affected term is zero); a pole strictly inside the summed range
    raises DenominatorPole.
    """
    m = spec.termination_index()
    if m is None:
        raise NonTerminatingSeries(
            f"no nonpositive-integer upper parameter in {spec.numerator}")
    for b in spec.denominator:
        if is_nonpositive_integer(b):
            pole = 1 - int(b)  # (b)_k first vanishes at k = 1 - b
            if pole <= m:
                raise DenominatorPole(
                    f"lower parameter {b} vanishes at term {pole} <= {m}")
    # r_k = prod (a + k) / prod (b + k) z / (k+1), k+1 the factor of one more lower
    # parameter, 1 (k! = (1)_k), unless an upper 1 cancels it and a lower one remains
    upper, lower = list(spec.numerator), [*spec.denominator, 1]
    if len(lower) > 1 and 1 in upper:
        del upper[upper.index(1)], lower[-1]
    an, ad = over_common_denominator(upper)
    bn, bd = over_common_denominator(lower)
    z = spec.argument
    zn = z.numerator * bd ** len(bn)
    zd = z.denominator * ad ** len(an)
    return horner_ratio_sum((zn * up, zd * down) for up, down in
                            zip(shifted_products(an, ad, m), shifted_products(bn, bd, m)))


# Kept for bench/tracer.py, which wraps it by name; ROADMAP item 3 deletes it.
def accelerated_pfq_at_minus_one(spec: PFQSpec,
                                 tol: Scalar = DEFAULT_ACCEL_TOL,
                                 dps: int = DEFAULT_DPS,
                                 max_terms: int = 1000):
    """Sum a pFq at argument -1, accelerating when it does not terminate.

    Returns ``(value, converged)``.  Terminating input short-circuits to the
    exact finite sum.  Otherwise the alternating partial sums are run through
    the iterated Euler transformation (repeated pairwise averaging of the
    partial-sum sequence); the triangle diagonal converges to the Abel sum
    even when the raw terms grow polynomially.  ``converged`` is True only
    when two successive diagonal estimates agree to ``tol`` relative; no
    value is ever invented, the flag simply reports failure.

    Intermediate partial sums of a divergent alternating series can dwarf the
    limit, so the working precision is raised until the observed cancellation
    leaves at least ``dps`` digits.
    """
    if spec.argument != -1:
        raise ValueError("acceleration is implemented for argument -1 only")
    if spec.termination_index() is not None:
        return terminating_pfq(spec), True

    import mpmath
    work = dps + 30
    value, converged = mpmath.mpf(0), False
    for _ in range(5):
        value, converged, lost = _euler_diagonal(spec, tol, work, max_terms)
        if lost + 10 <= work - dps:
            break
        work = dps + lost + 30
    with mpmath.workdps(dps):
        return +value, converged


def _euler_diagonal(spec, tol, work_dps, max_terms):
    import mpmath
    from mpmath import mpf
    with mpmath.workdps(work_dps):
        num = [to_mpf(a) for a in spec.numerator]
        den = [to_mpf(b) for b in spec.denominator]
        tolf = to_mpf(tol)
        term = mpf(1)
        psum = mpf(0)
        row: list = []
        maxabs = mpf(0)
        prev = None
        est = mpf(0)
        converged = False
        for k in range(max_terms):
            psum += term
            if abs(psum) > maxabs:
                maxabs = abs(psum)
            new_row = [psum]
            for v in row:
                new_row.append((new_row[-1] + v) / 2)
            row = new_row
            est = row[-1]
            if prev is not None and k >= 12 and abs(est - prev) <= tolf * abs(est):
                converged = True
                break
            prev = est
            ratio = mpf(1)
            for a in num:
                ratio *= a + k
            for b in den:
                ratio /= b + k
            term *= -ratio / (k + 1)
        if est != 0 and maxabs > abs(est):
            lost = int(mpmath.log10(maxabs / abs(est))) + 1
        else:
            lost = 0
        return est, converged, max(lost, 0)
