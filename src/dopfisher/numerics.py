"""Scalar backends and hypergeometric building blocks.

Two number backends are used throughout the package:

* exact rationals (`fractions.Fraction`), which stay bit-exact through every
  closed form with rational parameters, and
* arbitrary-precision floats (`mpmath.mpf`) with a declared working precision
  in decimal digits, used for truncated sums over infinite lattices and for
  the one non-terminating series that needs summation by acceleration.

Precision is controlled per call through a ``dps`` argument; the default is
generous because some closed-form factors cancel tens of digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

import mpmath
from mpmath import mpf

#: Default decimal working precision of the big-float backend.
DEFAULT_DPS = 80

#: Default relative tolerance for declaring an accelerated series converged.
DEFAULT_ACCEL_TOL = Fraction(1, 10**16)

Scalar = Union[int, Fraction, mpf]


class DenominatorPole(ArithmeticError):
    """A lower-parameter Pochhammer factor vanishes inside the summed range."""


class NonTerminatingSeries(ValueError):
    """No upper parameter is a nonpositive integer, so the series never ends."""


def to_fraction(x) -> Fraction:
    """Exact conversion to Fraction (floats convert via their binary value)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    if isinstance(x, mpf):
        numerator, denominator = mpmath.libmp.to_rational(x._mpf_)
        return Fraction(int(numerator), int(denominator))
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


def to_mpf(x, dps: Optional[int] = None) -> mpf:
    """Convert a scalar to mpf, rounding once at ``dps`` digits.

    With ``dps=None`` the current mpmath context precision is used.
    """
    if dps is not None:
        with mpmath.workdps(dps):
            return to_mpf(x)
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
    if isinstance(x, mpf):
        return x <= 0 and x == mpmath.floor(x)
    if isinstance(x, float):
        return x <= 0 and x == math.floor(x)
    return False


def pochhammer(a, k: int):
    """Rising factorial (a)_k = a (a+1) ... (a+k-1); (a)_0 = 1.

    Exact for int/Fraction input.
    """
    if k < 0:
        raise ValueError("pochhammer order must be a nonnegative integer")
    out = Fraction(1) if not isinstance(a, mpf) else mpf(1)
    for i in range(k):
        out *= a + i
    return out


def rel_gap(a, b, dps: int) -> mpf:
    """|a - b| / max(|a|, |b|) at ``dps`` digits; 0 when both vanish."""
    with mpmath.workdps(dps):
        fa, fb = to_mpf(a), to_mpf(b)
        scale = max(abs(fa), abs(fb))
        return abs(fa - fb) / scale if scale > 0 else mpf(0)


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


def terminating_pfq(spec: PFQSpec):
    """Evaluate a terminating pFq by the term-ratio recurrence.

    Exact under rational inputs.  Lower-parameter poles at or past the
    termination index are harmless (every affected term is zero); a pole
    strictly inside the summed range raises DenominatorPole.
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
    z = spec.argument
    values = spec.numerator + spec.denominator + (z,)
    one = mpf(1) if any(isinstance(v, (mpf, float)) for v in values) else Fraction(1)
    term = one
    total = one
    for k in range(m):
        for a in spec.numerator:
            term = term * (a + k)
        for b in spec.denominator:
            term = term / (b + k)
        term = term * z / (k + 1)
        total = total + term
    return total


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

    work = dps + 30
    value, converged = mpf(0), False
    for _ in range(5):
        value, converged, lost = _euler_diagonal(spec, tol, work, max_terms)
        if lost + 10 <= work - dps:
            break
        work = dps + lost + 30
    with mpmath.workdps(dps):
        return +value, converged


def _euler_diagonal(spec, tol, work_dps, max_terms):
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
