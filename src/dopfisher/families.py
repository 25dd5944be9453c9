"""The four classical discrete orthogonal polynomial families.

Charlier, Meixner, Kravchuk and Hahn polynomials are handled in their monic
normalization, together with the data that drives every Fisher-information
formula: lattice support, weight, norm, second-order difference-equation
coefficients, three-term recurrence, ladder relations and the expansion of
the forward difference back into the same family.

Weights and norms are *reduced*: a per-family constant (e^-mu for Charlier,
Gamma(alpha+1)Gamma(beta+1) for Hahn, ...) is factored out so that every
quantity entering a ratio is an exact rational for rational parameters.
`NormValue` keeps the factored constant symbolically, so the exact paths can
cancel it; it is restored only for the infinite-lattice density.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Optional, Tuple

from .numerics import (
    DEFAULT_DPS,
    PFQSpec,
    Scalar,
    horner_ratio_sum,
    over_common_denominator,
    pochhammer,
    shifted_products,
    terminating_pfq,
    to_fraction,
    to_mpf,
)


class OutOfSupport(ValueError):
    """Lattice point outside the family's orthogonality support."""


class DegreeOutOfRange(ValueError):
    """Polynomial degree outside the family's admissible range."""


class ParameterDomainError(ValueError):
    """Family parameters outside their admissible domain."""


@dataclass(frozen=True)
class LatticeSupport:
    """Integer lattice [a, b) -- half-open so sums run x = a .. b-1.

    ``b is None`` encodes an infinite support.
    """

    a: int
    b: Optional[int]

    def contains(self, x: int) -> bool:
        return x >= self.a and (self.b is None or x < self.b)

    def points(self):
        if self.b is None:
            raise ValueError("cannot enumerate an infinite support")
        return range(self.a, self.b)


@dataclass(frozen=True)
class NormValue:
    """A reduced norm  rational * exp(exp_coeff) * pow_base**pow_expo.

    Only the Charlier and Meixner families carry a non-trivial symbolic part
    (e^mu and (1-mu)^-(gamma+2n) respectively); it cancels in every
    same-family ratio, which is what keeps every route exact.  At degree 0
    the norm is the weight's total mass.
    """

    rational: Fraction
    exp_coeff: Fraction = Fraction(0)
    pow_base: Fraction = Fraction(1)
    pow_expo: Fraction = Fraction(0)

    def exact_ratio(self, other: "NormValue") -> Fraction:
        """self / other as an exact rational; raises if the symbolic parts
        do not cancel to an integer power."""
        if self.exp_coeff != other.exp_coeff:
            raise ValueError("exponential factors do not cancel")
        ratio = self.rational / other.rational
        expo = self.pow_expo - other.pow_expo
        if expo == 0:
            return ratio
        if self.pow_base != other.pow_base:
            raise ValueError("power bases differ")
        if expo.denominator != 1:
            raise ValueError("power factors leave a non-integer exponent")
        return ratio * self.pow_base ** int(expo)

    def to_float(self, dps: int = DEFAULT_DPS) -> "mpmath.mpf":
        import mpmath
        with mpmath.workdps(dps):
            out = to_mpf(self.rational)
            if self.exp_coeff:
                out *= mpmath.exp(to_mpf(self.exp_coeff))
            if self.pow_expo:
                out *= mpmath.power(to_mpf(self.pow_base), to_mpf(self.pow_expo))
            return out


@dataclass(frozen=True)
class TableOneData:
    """Per-family data of the hypergeometric difference equation
    sigma(x) Delta Nabla P + tau(x) Delta P + lambda_n P = 0."""

    sigma: Tuple[Fraction, Fraction, Fraction]  # constant, linear, quadratic
    tau: Tuple[Fraction, Fraction]              # constant, linear


class Family:
    """Shared machinery; concrete families supply the data hooks."""

    tag: str = ""

    # ---- data hooks ------------------------------------------------------

    def support(self) -> LatticeSupport:
        raise NotImplementedError

    def max_degree(self) -> Optional[int]:
        """Largest admissible degree, or None when unbounded."""
        return None

    def table_data(self) -> TableOneData:
        raise NotImplementedError

    def reduced_weight(self, x: int) -> Fraction:
        raise NotImplementedError

    def weight_ratio(self, x: int) -> Fraction:
        """w(x-1)/w(x) from the weight's closed form (never by dividing two
        weight evaluations, and never via the sigma/tau quotient)."""
        raise NotImplementedError

    def reduced_norm(self, n: int) -> NormValue:
        raise NotImplementedError

    def recurrence_a(self, m: int) -> Fraction:
        raise NotImplementedError

    def recurrence_b(self, m: int) -> Fraction:
        raise NotImplementedError

    def ladder_target(self, n: int) -> Tuple["Family", Fraction]:
        """Family G and factor c with  Delta P_n = c * G-polynomial of degree n-1."""
        raise NotImplementedError

    def closed_form(self, n: int) -> Fraction:
        """The paper's closed Fisher value at degree n >= 1, exact."""
        raise TypeError(f"unknown family {self!r}")

    def tail_ratio_bound(self, x: int) -> Fraction:
        """Upper bound on w(y+1)/w(y) valid for every y >= x (infinite supports).

        Only the truncated-sum engine reads it; ROADMAP item 3 deletes both."""
        raise TypeError(f"no tail bound for bounded family {self.tag}")

    def factorial_moments(self, k: int) -> list:
        """sum_x w(x) x(x-1)...(x-j+1) / sum_x w(x) for j = 0..k, exact; the
        total mass sum_x w(x) is reduced_norm(0)."""
        raise NotImplementedError

    # ---- shared machinery --------------------------------------------------

    def check_degree(self, n: int) -> None:
        top = self.max_degree()
        if not isinstance(n, int) or n < 0 or (top is not None and n > top):
            raise DegreeOutOfRange(f"{self.tag}: degree {n} not in 0..{top}")

    def check_support(self, x) -> int:
        if not isinstance(x, int) or not self.support().contains(x):
            raise OutOfSupport(f"{self.tag}: lattice point {x} outside support")
        return x

    def check_ladder_degree(self, n: int) -> None:
        self.check_degree(n)
        if n < 1:
            raise DegreeOutOfRange(f"{self.tag}: ladder needs degree >= 1")

    def sigma(self, x) -> Fraction:
        c0, c1, c2 = self.table_data().sigma
        return c0 + c1 * x + c2 * x * x

    def tau(self, x) -> Fraction:
        c0, c1 = self.table_data().tau
        return c0 + c1 * x

    def lambda_n(self, n: int) -> Fraction:
        # the x^n coefficient of the difference equation on a monic P_n
        data = self.table_data()
        return -n * data.tau[1] - n * (n - 1) * data.sigma[2]

    def eval_points(self, n: int, xs) -> list:
        """Monic degree-n polynomial values at every point of ``xs`` in one
        three-term-recurrence pass, computing each a_m and b_m once.

        Exact for Fraction/int points.
        """
        self.check_degree(n)
        prev = [x * 0 + 1 for x in xs]
        if n == 0:
            return prev
        a, b = self.recurrence_a_upto(n), self.recurrence_b_upto(n)
        cur = [x - a[0] for x in xs]
        for m in range(1, n):
            am, bm = a[m], b[m]
            prev, cur = cur, [(x - am) * c - bm * q for x, c, q in zip(xs, cur, prev)]
        return cur

    def eval_poly(self, n: int, x: Scalar):
        """Monic degree-n polynomial value at one point (see eval_points)."""
        return self.eval_points(n, (x,))[0]

    def forward_diff(self, n: int, x: Scalar):
        """Delta P_n(x) = P_n(x+1) - P_n(x)."""
        low, high = self.eval_points(n, (x, x + 1))
        return high - low

    def poly_coeffs(self, n: int) -> Tuple[Fraction, ...]:
        """Monomial coefficients of monic P_n, as Fractions from its integer ``poly_row``."""
        nums, den = self.poly_row(n)
        return tuple(Fraction(c, den) for c in nums)

    def poly_row(self, n: int) -> Tuple[Tuple[int, ...], int]:
        """``poly_coeffs`` as (integer numerators, one denominator), lowest terms."""
        self.check_degree(n)
        return _tables(self).monomials(n)

    def moment_row(self, k: int) -> Tuple[Tuple[int, ...], int]:
        """The raw moments sum_x w(x) x^i / sum_x w(x) for i = 0..k at least,
        from ``factorial_moments``, as (integer numerators, one denominator);
        kept per family and extended on demand."""
        return _tables(self).moments(k)

    def recurrence_a_upto(self, n: int) -> list:
        """A list holding at least a_0 .. a_(n-1), each computed once per
        family and shared by every caller (read it, never mutate it)."""
        return _tables(self).a_upto(n)

    def recurrence_b_upto(self, n: int) -> list:
        """A list holding at least b_0 .. b_(n-1); see recurrence_a_upto."""
        return _tables(self).b_upto(n)

    def connection_row(self, n: int) -> Tuple[Tuple[int, ...], int]:
        """Coefficients a_j with  Delta P_n(x) = sum_j a_j P_j(x), j = 0..n-1,
        expanded in the *same* family, as (integer numerators, one
        denominator) in lowest terms.

        Delta applied to the three-term recurrence gives

            Delta P_(m+1) = (x + 1 - a_m) Delta P_m + P_m - b_m Delta P_(m-1),

        and multiplication by x acts on the P-basis as the Jacobi matrix,
        x P_k = P_(k+1) + a_k P_k + b_k P_(k-1).  Starting from Delta P_0 = 0
        and Delta P_1 = P_0, the step to degree m+1 costs O(m) integer
        operations, so degree n costs O(n^2); the walk keeps its last two
        rows per family, so a sweep of increasing degrees pays one step each.
        Families with a ladder relation override this with its O(n) product.
        """
        self.check_degree(n)
        return _tables(self).delta(n)


#: families whose tables stay cached; the least recently used one goes first
_TABLE_CACHE_SIZE = 16


class _Tables:
    """One family's recurrence coefficients, monomial rows, Delta-expansion
    walk and raw moments, grown on demand under a lock.  List rows are only
    ever appended and the walk and the moment row are replaced whole, so a
    reader needs no lock.  Every row is integer numerators over one
    denominator, reduced by one gcd per row; the raw moments keep the lcm of
    their factorial moments' denominators."""

    def __init__(self, fam: Family):
        self.fam = fam
        self.a, self.b = [], []
        self.monos = [((1,), 1)]
        self.walk = _WALK_START
        self.raw = ((), 1)   # raw moments E x^i, i = 0, 1, ..., over one denominator
        self.stirling = []   # S(i, 0..i) for the last i of the raw moments
        self.lock = threading.RLock()

    def grow(self, rows: list, n: int, make_row) -> list:
        """rows, with make_row(m) appended for m = len(rows) .. n-1."""
        if len(rows) < n:
            with self.lock:
                while len(rows) < n:
                    rows.append(make_row(len(rows)))
        return rows

    def a_upto(self, n: int) -> list:
        return self.grow(self.a, n, self.fam.recurrence_a)

    def b_upto(self, n: int) -> list:
        return self.grow(self.b, n, self.fam.recurrence_b)

    def delta(self, n: int) -> Tuple[Tuple[int, ...], int]:
        # degrees asked in increasing order extend the walk at O(m) each; a
        # degree below the kept rows walks again from the start
        with self.lock:
            if n < self.walk[0] - 1:
                self.walk = _WALK_START
            while self.walk[0] < n:
                self.walk = self._delta_step(*self.walk)
            degree, u, v, _ = self.walk
            return (u, v)[n - degree + 1]

    def monomials(self, n: int) -> Tuple[Tuple[int, ...], int]:
        return self.grow(self.monos, n + 1, self._mono_row)[n]

    def moments(self, k: int) -> Tuple[Tuple[int, ...], int]:
        row = self.raw
        if len(row[0]) <= k:
            with self.lock:
                if len(self.raw[0]) <= k:
                    self.raw = self._raw_moments(k)
                row = self.raw
        return row

    def _delta_step(self, t: int, u: tuple, v: tuple, lcm: int) -> tuple:
        # Delta P_m = (x + 1 - a_t) Delta P_t + P_t - b_t Delta P_(t-1), m = t+1,
        # from the kept rows u, v of degrees t-1 and t.  With
        # x P_k = P_(k+1) + a_k P_k + b_k P_(k-1), the P_k coefficient for k < t is
        #     v_(k-1) + (a_k + 1 - a_t) v_k + b_(k+1) v_(k+1) - b_t u_k,
        # and the leading one (k = t) is v_(t-1) + 1 = m.  Over L, the lcm of
        # the denominators of a_0..a_t and b_1..b_t (a_(t-1) is in the walk's
        # lcm already past its first step), every a_k and b_(k+1) is an
        # integer, and the row is taken over den = lcm(vd L, ud den(b_t)).
        m = t + 1
        a, b = self.a_upto(m), self.b_upto(m)
        (un, ud), (vn, vd) = u, v
        at, bt = a[t], b[t]
        lcm = math.lcm(lcm, a[t - 1].denominator, at.denominator, bt.denominator)
        den = math.lcm(vd * lcm, ud * bt.denominator)
        sv, su = den // (vd * lcm), den // (ud * bt.denominator) * bt.numerator
        shift = lcm - lcm // at.denominator * at.numerator
        al = [lcm // x.denominator * x.numerator + shift for x in a[:t]]
        bl = [lcm // x.denominator * x.numerator for x in b[1:m]]
        un += (0,)
        vp = (0,) + vn + (0,)   # vp[k], vp[k+1], vp[k+2] = v_(k-1), v_k, v_(k+1)
        out = [sv * (lcm * vp[k] + al[k] * vp[k + 1] + bl[k] * vp[k + 2]) - su * un[k]
               for k in range(t)]
        out.append(m * den)
        g = math.gcd(den, *out)
        return m, v, (tuple(c // g for c in out), den // g), lcm

    def _mono_row(self, m: int) -> Tuple[Tuple[int, ...], int]:
        # P_m = (x - a_t) P_t - b_t P_(t-1), t = m-1; with p, q the rows of
        # degrees t and t-1 over pd, qd, the x^i coefficient p_(i-1) - a_t p_i
        # - b_t q_i is taken over den = lcm(pd den(a_t), qd den(b_t))
        t = m - 1
        at, bt = self.a_upto(m)[t], self.b_upto(m)[t]
        (pn, pd), (qn, qd) = self.monos[t], self.monos[t - 1] if t else ((), 1)
        den = math.lcm(pd * at.denominator, qd * bt.denominator)
        sp, sb = den // pd, den // (qd * bt.denominator) * bt.numerator
        sa = sp // at.denominator * at.numerator
        p, q = (0,) + pn + (0,), qn + (0, 0)   # p[i], p[i+1] = p_(i-1), p_i
        out = [p[i] * sp - sa * p[i + 1] - sb * q[i] for i in range(m + 1)]
        g = math.gcd(den, *out)
        return tuple(c // g for c in out), den // g

    def _raw_moments(self, k: int) -> Tuple[Tuple[int, ...], int]:
        # E x^i = sum_j S(i, j) m_j, with m_j the factorial moments and S the
        # Stirling numbers of the second kind, S(i, j) = j S(i-1, j) + S(i-1, j-1),
        # continued from the kept row.  The lcm of the factorial moments'
        # denominators only gains factors as k grows, so the kept numerators
        # move to the new denominator by one integer factor.
        nums, den = self.raw
        fm, fd = over_common_denominator(self.fam.factorial_moments(k))
        scale = fd // den
        nums = [c * scale for c in nums]
        row = self.stirling
        for i in range(len(nums), k + 1):
            row = [0] + [j * row[j] + row[j - 1] for j in range(1, i)] + [1] if i else [1]
            nums.append(sum(s * f for s, f in zip(row, fm)))
        self.stirling = row
        return tuple(nums), fd


# degree 1 of the Delta-walk: Delta P_0 = 0 and Delta P_1 = P_0, and the lcm
# of the recurrence denominators it has used
_WALK_START = (1, ((), 1), ((1,), 1), 1)


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _tables(fam: Family) -> _Tables:
    return _Tables(fam)


def _ladder_connection(n: int, r: Fraction) -> Tuple[Tuple[int, ...], int]:
    # a_j = n (j+1)_(n-1-j) r^(n-1-j), r = num/den, over den^(n-1): numerator
    # n (j+1)_(n-1-j) num^(n-1-j) den^j, walked down from n den^(n-1) by the
    # exact step c_(j-1) = c_j / den * j num, then one gcd for the row
    if n == 0:
        return (), 1
    num, den = r.numerator, r.denominator
    top = den ** (n - 1)
    out = [0] * n
    c = n * top
    for j in range(n - 1, -1, -1):
        out[j] = c
        c = c // den * (j * num)
    g = math.gcd(top, *out)
    return tuple(c // g for c in out), top // g


def shift_coeffs(coeffs, h: int = 1) -> tuple:
    """Coefficients of q(x) = p(x + h) by binomial expansion; integer
    coefficients (a ``poly_row``'s numerators) stay integers."""
    out = [0] * len(coeffs)
    for i, c in enumerate(coeffs):
        if c:
            for k in range(i + 1):
                out[k] += c * math.comb(i, k) * h ** (i - k)
    return tuple(out)


def diff_coeffs(coeffs) -> tuple:
    """Coefficients of the forward difference p(x+1) - p(x); degree drops by one."""
    shifted = shift_coeffs(coeffs, 1)
    out = [s - c for s, c in zip(shifted, coeffs)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


# ---------------------------------------------------------------------------
# Concrete families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Charlier(Family):
    """Monic Charlier polynomials; Poisson-type weight mu^x/x! on x = 0, 1, ..."""

    mu: Fraction

    tag = "charlier"

    def __post_init__(self):
        object.__setattr__(self, "mu", to_fraction(self.mu))
        if self.mu <= 0:
            raise ParameterDomainError("charlier: mu must be > 0")

    def support(self):
        return LatticeSupport(0, None)

    def table_data(self):
        return TableOneData(
            sigma=(Fraction(0), Fraction(1), Fraction(0)),
            tau=(self.mu, Fraction(-1)),
        )

    def reduced_weight(self, x):
        x = self.check_support(x)
        return self.mu ** x / Fraction(math.factorial(x))

    def weight_ratio(self, x):
        x = self.check_support(x)
        if x < 1:
            raise OutOfSupport("weight ratio needs x >= 1")
        return Fraction(x) / self.mu

    def tail_ratio_bound(self, x):
        return self.mu / (x + 1)  # decreasing in x

    def factorial_moments(self, k):
        return [self.mu ** j for j in range(k + 1)]

    def reduced_norm(self, n):
        self.check_degree(n)
        return NormValue(Fraction(math.factorial(n)) * self.mu ** n,
                         exp_coeff=self.mu)

    def recurrence_a(self, m):
        return m + self.mu

    def recurrence_b(self, m):
        return m * self.mu

    def ladder_target(self, n):
        self.check_ladder_degree(n)
        return self, Fraction(n)

    def connection_row(self, n):
        self.check_degree(n)
        return _ladder_connection(n, Fraction(0))

    def closed_form(self, n):
        return Fraction(n) / self.mu


@dataclass(frozen=True)
class Meixner(Family):
    """Monic Meixner polynomials; negative-binomial weight mu^x (gamma)_x / x!."""

    gamma: Fraction
    mu: Fraction

    tag = "meixner"

    def __post_init__(self):
        object.__setattr__(self, "gamma", to_fraction(self.gamma))
        object.__setattr__(self, "mu", to_fraction(self.mu))
        if self.gamma <= 0:
            raise ParameterDomainError("meixner: gamma must be > 0")
        if not 0 < self.mu < 1:
            raise ParameterDomainError("meixner: mu must be in (0, 1)")

    def support(self):
        return LatticeSupport(0, None)

    def table_data(self):
        return TableOneData(
            sigma=(Fraction(0), Fraction(1), Fraction(0)),
            tau=(self.mu * self.gamma, self.mu - 1),
        )

    def reduced_weight(self, x):
        x = self.check_support(x)
        return self.mu ** x * pochhammer(self.gamma, x) / math.factorial(x)

    def weight_ratio(self, x):
        x = self.check_support(x)
        if x < 1:
            raise OutOfSupport("weight ratio needs x >= 1")
        return Fraction(x) / (self.mu * (self.gamma + x - 1))

    def tail_ratio_bound(self, x):
        # ratio mu (gamma+y)/(y+1) is monotone toward mu from either side
        return self.mu * max(Fraction(1), (self.gamma + x) / Fraction(x + 1))

    def factorial_moments(self, k):
        # (gamma)_j r^j with r = mu/(1-mu), one factor per step
        r = self.mu / (1 - self.mu)
        out = [Fraction(1)]
        for j in range(1, k + 1):
            out.append(out[-1] * (self.gamma + j - 1) * r)
        return out

    def reduced_norm(self, n):
        self.check_degree(n)
        rational = Fraction(math.factorial(n)) * pochhammer(self.gamma, n) * self.mu ** n
        return NormValue(rational, pow_base=1 - self.mu,
                         pow_expo=-(self.gamma + 2 * n))

    def recurrence_a(self, m):
        # (m + (m + gamma) mu) / (1 - mu), with gamma = g/gd and mu = u/ud
        g, gd, u, ud = self._parts()
        return Fraction(m * gd * ud + (m * gd + g) * u, gd * (ud - u))

    def recurrence_b(self, m):
        # m (m + gamma - 1) mu / (1 - mu)^2
        g, gd, u, ud = self._parts()
        return Fraction(m * (m * gd + g - gd) * u * ud, gd * (ud - u) ** 2)

    def _parts(self):
        return (self.gamma.numerator, self.gamma.denominator,
                self.mu.numerator, self.mu.denominator)

    def ladder_target(self, n):
        self.check_ladder_degree(n)
        return Meixner(self.gamma + 1, self.mu), Fraction(n)

    def connection_row(self, n):
        self.check_degree(n)
        return _ladder_connection(n, self.mu / (self.mu - 1))

    def closed_form(self, n):
        g, mu = self.gamma, self.mu
        return (n * (1 - mu) ** 2 / (mu * (n + g - 1))
                * terminating_pfq(PFQSpec((Fraction(1 - n), Fraction(1)),
                                          (2 - n - g,), mu)))


@dataclass(frozen=True)
class Kravchuk(Family):
    """Monic Kravchuk polynomials; binomial weight C(N,x) p^x (1-p)^(N-x) on x = 0..N."""

    p: Fraction
    N: int

    tag = "kravchuk"

    def __post_init__(self):
        object.__setattr__(self, "p", to_fraction(self.p))
        if not isinstance(self.N, int) or self.N < 1:
            raise ParameterDomainError("kravchuk: N must be a positive integer")
        if not 0 < self.p < 1:
            raise ParameterDomainError("kravchuk: p must be in (0, 1)")

    def support(self):
        # sums run x = 0 .. N inclusive
        return LatticeSupport(0, self.N + 1)

    def max_degree(self):
        return self.N - 1

    def table_data(self):
        q = 1 - self.p
        return TableOneData(
            sigma=(Fraction(0), Fraction(1), Fraction(0)),
            tau=(self.N * self.p / q, Fraction(-1) / q),
        )

    def reduced_weight(self, x):
        x = self.check_support(x)
        return math.comb(self.N, x) * self.p ** x * (1 - self.p) ** (self.N - x)

    def weight_ratio(self, x):
        x = self.check_support(x)
        if x < 1:
            raise OutOfSupport("weight ratio needs x >= 1")
        return Fraction(x) * (1 - self.p) / (self.p * (self.N - x + 1))

    def factorial_moments(self, k):
        # N(N-1)...(N-j+1) p^j, one factor per step
        out = [Fraction(1)]
        for j in range(1, k + 1):
            out.append(out[-1] * (self.N - j + 1) * self.p)
        return out

    def reduced_norm(self, n):
        self.check_degree(n)
        rational = (Fraction(math.factorial(n) * math.factorial(self.N),
                             math.factorial(self.N - n))
                    * self.p ** n * (1 - self.p) ** n)
        return NormValue(rational)

    def recurrence_a(self, m):
        # p (N - m) + m (1 - p), with p = u/d
        u, d = self.p.numerator, self.p.denominator
        return Fraction(u * (self.N - m) + m * (d - u), d)

    def recurrence_b(self, m):
        # m p (1 - p) (N - m + 1)
        u, d = self.p.numerator, self.p.denominator
        return Fraction(m * u * (d - u) * (self.N - m + 1), d * d)

    def ladder_target(self, n):
        self.check_ladder_degree(n)
        return Kravchuk(self.p, self.N - 1), Fraction(n)

    def connection_row(self, n):
        self.check_degree(n)
        return _ladder_connection(n, self.p)

    def closed_form(self, n):
        p, N = self.p, self.N
        return (Fraction(n, N - n + 1) / (p * (1 - p))
                * terminating_pfq(PFQSpec((Fraction(1 - n), Fraction(1)),
                                          (Fraction(N - n + 2),), p / (p - 1))))


@dataclass(frozen=True)
class Hahn(Family):
    """Monic Hahn polynomials; hypergeometric-type weight on x = 0..N-1.

    The reduced weight is (alpha+1)_(N-1-x) (beta+1)_x / ((N-1-x)! x!).
    """

    alpha: Fraction
    beta: Fraction
    N: int

    tag = "hahn"

    def __post_init__(self):
        object.__setattr__(self, "alpha", to_fraction(self.alpha))
        object.__setattr__(self, "beta", to_fraction(self.beta))
        if not isinstance(self.N, int) or self.N < 1:
            raise ParameterDomainError("hahn: N must be a positive integer")
        # strict: the weight degenerates at alpha = -1 or beta = -1
        if self.alpha <= -1 or self.beta <= -1:
            raise ParameterDomainError("hahn: alpha and beta must be > -1")

    def support(self):
        # sums run x = 0 .. N-1 inclusive
        return LatticeSupport(0, self.N)

    def max_degree(self):
        return self.N - 1

    def table_data(self):
        al, be, N = self.alpha, self.beta, self.N
        return TableOneData(
            sigma=(Fraction(0), N + al, Fraction(-1)),
            tau=((be + 1) * (N - 1), -(al + be + 2)),
        )

    def reduced_weight(self, x):
        x = self.check_support(x)
        return (pochhammer(self.alpha + 1, self.N - 1 - x)
                * pochhammer(self.beta + 1, x)
                / (math.factorial(self.N - 1 - x) * math.factorial(x)))

    def weight_ratio(self, x):
        x = self.check_support(x)
        if x < 1:
            raise OutOfSupport("weight ratio needs x >= 1")
        return (x * (self.N + self.alpha - x)
                / ((self.N - x) * (self.beta + x)))

    def factorial_moments(self, k):
        # (N-1)(N-2)...(N-j) (beta+1)_j / (alpha+beta+2)_j, one factor per step
        s = self.alpha + self.beta
        out = [Fraction(1)]
        for j in range(1, k + 1):
            out.append(out[-1] * (self.N - j) * (self.beta + j) / (s + 1 + j))
        return out

    def reduced_norm(self, n):
        self.check_degree(n)
        al, be, N = self.alpha, self.beta, self.N
        s = al + be
        if n == 0:
            # (s+1)_N/(s+1) written cancelled so s = -1 stays finite
            return NormValue(pochhammer(s + 2, N - 1) / math.factorial(N - 1))
        rational = (Fraction(math.factorial(n))
                    * pochhammer(al + 1, n) * pochhammer(be + 1, n)
                    * pochhammer(n + s + 1, N)
                    / ((2 * n + s + 1) * math.factorial(N - n - 1)
                       * pochhammer(n + s + 1, n) ** 2))
        return NormValue(rational)

    def _parts(self):
        """(d, p, q) with d = lcm(den alpha, den beta), alpha = p/d and
        beta = q/d: over d, the d^2 of each quotient of A_m and C_m cancels."""
        al, be = self.alpha, self.beta
        d = math.lcm(al.denominator, be.denominator)
        return d, al.numerator * (d // al.denominator), be.numerator * (d // be.denominator)

    def _coef_a(self, m):
        """A_m, with a_m = A_m + C_m and b_m = A_(m-1) C_m, as an integer
        (numerator, denominator) pair."""
        d, p, q = self._parts()
        ds, N = p + q, self.N           # ds = d (alpha + beta)
        if m == 0:
            # the (s+1) factor of A_0 cancels; written cancelled so s = -1 stays finite
            return (d + q) * (N - 1), 2 * d + ds
        return ((d * (m + 1) + ds) * (d * (m + 1) + q) * (N - 1 - m),
                (d * (2 * m + 1) + ds) * (d * (2 * m + 2) + ds))

    def _coef_c(self, m):
        """C_m (see ``_coef_a``) as an integer (numerator, denominator) pair."""
        if m == 0:
            return 0, 1
        d, p, q = self._parts()
        ds, N = p + q, self.N
        return m * (d * (m + N) + ds) * (d * m + p), (2 * d * m + ds) * (d * (2 * m + 1) + ds)

    def recurrence_a(self, m):
        an, ad = self._coef_a(m)
        cn, cd = self._coef_c(m)
        return Fraction(an * cd + cn * ad, ad * cd)

    def recurrence_b(self, m):
        if m == 0:
            return Fraction(0)
        an, ad = self._coef_a(m - 1)
        cn, cd = self._coef_c(m)
        return Fraction(an * cn, ad * cd)

    def ladder_target(self, n):
        self.check_ladder_degree(n)
        return Hahn(self.alpha + 1, self.beta + 1, self.N - 1), Fraction(n)

    def closed_form(self, n):
        al, be, N = self.alpha, self.beta, self.N
        s = al + be
        f1 = Fraction(math.factorial(n - 1))
        # every Pochhammer of order n-1 below, built once; those of order n
        # and n-2 are one factor away from one of them
        m = n - 1
        al1, be1, be2 = pochhammer(al + 1, m), pochhammer(be + 1, m), pochhammer(be + 2, m)
        half, s2, sN = pochhammer((s + 3) / 2, m), pochhammer(s + 2, m), pochhammer(s + N + 1, m)
        up, down, far = (pochhammer(s + n + 2, m), pochhammer(-s - n - 1, m),
                         pochhammer(-s - n - N, m))
        one_N, two_N = pochhammer(Fraction(1 - N), m), pochhammer(Fraction(2 - N), m)
        aln = pochhammer(-al - n, m)

        # Leading factor: every Gamma ratio pairs up with an integer argument
        # difference, so it reduces to Pochhammers and stays rational.  The
        # factors of length N cancel and are written so:
        # (N-n-1)!/(N-1)! = 1/(N-n)_n and (s+2)_(N-1)/(s+n+1)_N = (s+2)_(n-1)/(s+N+1)_n.
        lead = (Fraction(n * n) * (s + 2 * n + 1) * ((s + n + 1) * up) ** 2 * s2
                / (math.factorial(n) * math.perm(N - 1, n)
                   * al1 * (al + n) * be1 * (be + n) * sN * (s + N + n)))

        # (s+1)_(n-1)/((s+1)/2)_(n-1), a removable 0/0 on s = -1, written
        # cancelled: both lose their first factor, (s+1) against (s+1)/2, which
        # leaves 2 (s+2)_(n-2)/((s+3)/2)_(n-2) = (s+2)_(n-1) (s+2n-1)/((s+n) ((s+3)/2)_(n-1))
        ratio = 1 if n == 1 else s2 * (s + 2 * n - 1) / ((s + n) * half)

        b1 = (f1 * (be + 1) * (s + N + 1) * far * be2
              / (up * down * (s + 2) * (N + be))) ** 2
        b2 = Fraction(-1) ** (n - 1) * al1 * half * ratio * one_N / (f1 * be1 * sN)
        b3 = _hahn_5f4(n, s, (1 - n - be, 1 - n - s - N),
                       (1 - n - al, 2 - n - (s + 3) / 2, Fraction(1 - n + N)))

        c1 = (2 * Fraction(-1) ** n * f1 ** 2 * (be + 1) * (s + N + 1) * far
              / (up * down * (s + 2)) ** 2)
        # The two Gamma factors of the C product differ by the integer n-1 and
        # combine into (s+2)_(n-1).
        c2 = (be2 * (1 - N) * (al + 1) * aln * two_N * (s + 2 * n + 1)
              / (Fraction(math.factorial(n)) * (N + be) ** 2)) * s2
        # c3 = 3F2(1, a+1, b; n+1, a; -1), a = (s+1)/2 + n, b = s+n+1, does not
        # terminate, but its terms telescope, t_k = T_(k+1) - T_k with
        # T_k = -(n+k)/(2a) (b)_k/(n+1)_k (-1)^k, so its Abel sum is -T_0.
        c3 = Fraction(n) / (2 * n + s + 1)

        d1 = (f1 * (N - 1) * (al + 1) * aln * two_N
              / (up * down * (s + 2) * (N + be))) ** 2
        d2 = Fraction(-1) ** (n - 1) * half * be1 * sN * ratio / (f1 * one_N * al1)
        d3 = _hahn_5f4(n, s, (Fraction(1 - n + N), 1 - n - al),
                       (2 - n - (s + 3) / 2, 1 - n - be, 1 - n - s - N))

        return lead * (b1 * b2 * b3 + d1 * d2 * d3 + c1 * c2 * c3)


def _hahn_5f4(n: int, s: Fraction, upper: tuple, lower: tuple) -> Fraction:
    """5F4(1-n, 1, *upper, u; *lower, l; -1) of the Hahn closed form, with
    u = 2-n-(s+1)/2 and l = 1-n-s, as a Horner sum over one denominator
    (``horner_ratio_sum``).

    The term ratio at i is (n-1-i) (u+i)/(l+i) prod (a+i) / prod (b+i), since
    (1-n+i) (1+i) (-1) / (i+1) = n-1-i.  With s = sn/sd, (u+i)/(l+i) is the
    integer pair (2 sd (2-n+i) - sn - sd, 2 (sd (1-n+i) - sn)).  Its last
    factor, (u+n-2)/(l+n-2) = (-(s+1)/2)/(-(s+1)), is 1/2 for every s and is
    written so, which keeps the removable 0/0 of s = -1 exact.  No other l+i
    vanishes: l+i = 0 needs s = 1-n+i <= -2, and s > -2.
    """
    sn, sd = s.numerator, s.denominator
    an, ad = over_common_denominator(upper)
    bn, bd = over_common_denominator(lower)
    scale_n, scale_d = bd ** len(bn), ad ** len(an)
    # (u+i)/(l+i) for i = n-2 down to 0, with c = 2-n+i
    ul = chain([(1, 2)], ((2 * sd * c - sn - sd, 2 * (sd * (c - 1) - sn))
                          for c in range(-1, 1 - n, -1)))
    return horner_ratio_sum(
        (k * un * scale_n * up, ln * scale_d * down) for k, (un, ln), up, down in
        zip(range(1, n), ul, shifted_products(an, ad, n - 1), shifted_products(bn, bd, n - 1)))


_TAGS = {"charlier": Charlier, "meixner": Meixner, "kravchuk": Kravchuk, "hahn": Hahn}

_REQUIRED = {
    "charlier": ("mu",),
    "meixner": ("gamma", "mu"),
    "kravchuk": ("p", "N"),
    "hahn": ("alpha", "beta", "N"),
}


def make_family(tag: str, **params) -> Family:
    """Build a family from its tag and named parameters.

    Raises ParameterDomainError for out-of-domain values and ValueError for
    unknown tags or missing/extra parameters.
    """
    tag = tag.lower()
    if tag not in _TAGS:
        raise ValueError(f"unknown family {tag!r}; choose from {sorted(_TAGS)}")
    required = _REQUIRED[tag]
    missing = [k for k in required if params.get(k) is None]
    extra = [k for k, v in params.items() if k not in required and v is not None]
    if missing:
        raise ValueError(f"{tag} requires parameters: {', '.join(missing)}")
    if extra:
        raise ValueError(f"{tag} does not take: {', '.join(sorted(extra))}")
    return _TAGS[tag](*(params[k] for k in required))
