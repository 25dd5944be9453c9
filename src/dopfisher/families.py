"""The four classical discrete orthogonal polynomial families.

Charlier, Meixner, Kravchuk and Hahn polynomials are handled in their monic
normalization, together with the data that drives every Fisher-information
formula: lattice support, weight, norm, second-order difference-equation
coefficients, three-term recurrence, ladder relations and the structure
relation that expands the forward difference back into the same family.

Each family is a polynomial family of hypergeometric type, fixed by sigma
and tau of its difference equation sigma Delta Nabla P + tau Delta P +
lambda_n P = 0 (Nikiforov, Suslov and Uvarov, 1991), and supplies them as
one integer hook (``Family.pearson_pair``).  One set of integer formulas
turns them into P_n's falling-factorial coefficients (P_n is a 2F0 on
Charlier, a 2F1 on Meixner and Kravchuk, a 3F2 on Hahn), the recurrence
coefficient b_m, the structure pairs e_m, f_m, the quadrature row and the
node values of every family (``_Tables`` has the derivations).  The
weights, norms, ladder targets and closed forms stay per family: they are
the independent data that ``verify`` checks the derived rows against.

Weights and norms are *reduced*: a per-family constant (e^-mu for Charlier,
Gamma(alpha+1)Gamma(beta+1) for Hahn, ...) is factored out so that every
quantity entering a ratio is an exact rational for rational parameters.
`NormValue` keeps the factored constant symbolically, so the exact paths can
cancel it; it is restored only for the infinite-lattice density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain
from operator import mul
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


class Family:
    """Shared machinery; concrete families supply the data hooks."""

    tag: str = ""

    # ---- data hooks ------------------------------------------------------

    def support(self) -> LatticeSupport:
        raise NotImplementedError

    def max_degree(self) -> Optional[int]:
        """Largest admissible degree, or None when unbounded."""
        return None

    def pearson_pair(self) -> Tuple[int, int, int, int, int, int]:
        """(s0, s1, s2, t0, t1, c), integers with c > 0: sigma = (s0 + s1 x +
        s2 x^2)/c and tau = (t0 + t1 x)/c of the difference equation, which
        fix P_n, the recurrence, the structure pairs, the quadrature row and
        the node values (see ``_Tables``)."""
        raise NotImplementedError

    def reduced_weight(self, x: int) -> Fraction:
        raise NotImplementedError

    def weight_ratio(self, x: int) -> Fraction:
        """w(x-1)/w(x) from the weight's closed form (never by dividing two
        weight evaluations, and never via the sigma/tau quotient)."""
        raise NotImplementedError

    def reduced_norm(self, n: int) -> NormValue:
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

    # ---- shared machinery --------------------------------------------------

    def check_degree(self, n: int) -> None:
        top = self.max_degree()
        if not isinstance(n, int) or n < 0 or (top is not None and n > top):
            span = "a nonnegative integer" if top is None else f"in 0..{top}"
            raise DegreeOutOfRange(f"{self.tag}: degree {n} not {span}")

    def check_support(self, x) -> int:
        if not isinstance(x, int) or not self.support().contains(x):
            raise OutOfSupport(f"{self.tag}: lattice point {x} outside support")
        return x

    def check_ladder_degree(self, n: int) -> None:
        self.check_degree(n)
        if n < 1:
            raise DegreeOutOfRange(f"{self.tag}: ladder needs degree >= 1")

    def sigma(self, x) -> Fraction:
        s0, s1, s2, _, _, c = self.pearson_pair()
        return Fraction(s0 + s1 * x + s2 * x * x, c)

    def tau(self, x) -> Fraction:
        _, _, _, t0, t1, c = self.pearson_pair()
        return Fraction(t0 + t1 * x, c)

    def lambda_n(self, n: int) -> Fraction:
        # the x^n coefficient of the difference equation on a monic P_n
        _, _, s2, _, t1, c = self.pearson_pair()
        return Fraction(-n * ((n - 1) * s2 + t1), c)

    def recurrence_b(self, m: int) -> Fraction:
        """b_m of the three-term recurrence, b_0 = 0 (see ``_Tables``)."""
        return Fraction(*_tables(self).coefficients(m)[0]) if m else Fraction(0)

    def structure_pair(self, m: int) -> Tuple[int, int, int, int]:
        """(num e_m, den e_m, num f_m, den f_m), lowest terms, denominators
        positive, with P_m = Q_m + e_m Q_(m-1) + f_m Q_(m-2) for m >= 1, Q the
        monic polynomials of ``ladder_target`` (see ``_Tables``); m = 0 gives
        (0, 1, 0, 1)."""
        return _tables(self).coefficients(m)[1] if m else (0, 1, 0, 1)

    def eval_points(self, n: int, xs) -> list:
        """Monic degree-n polynomial values at every point of ``xs`` (ints,
        Fractions or strs, as ``to_fraction`` takes them), exact Fractions,
        by integer Horner on P_n's falling-factorial coefficients over the
        points' common denominator (``_Tables.end_values``)."""
        self.check_degree(n)
        nums, q = over_common_denominator([to_fraction(x) for x in xs])
        values, den = _tables(self).end_values(n, nums, q)
        return [Fraction(v, den) for v in values]

    def eval_poly(self, n: int, x: Scalar):
        """Monic degree-n polynomial value at one point (see eval_points)."""
        return self.eval_points(n, (x,))[0]

    def forward_diff(self, n: int, x: Scalar):
        """Delta P_n(x) = P_n(x+1) - P_n(x)."""
        low, high = self.eval_points(n, (x, x + 1))
        return high - low

    def quadrature_row(self, k: int) -> Tuple[Tuple[int, ...], int]:
        """(L, den) with sum_x L_x c(x) / den = sum_x w(x) c(x) / sum_x w(x)
        for every polynomial c of degree at most k (see ``_Tables``)."""
        return _tables(self).quadrature_row(k)


#: families whose tables stay cached; the least recently used one goes first
_TABLE_CACHE_SIZE = 16


def _lowest(num: int, den: int) -> Tuple[int, int]:
    """num/den as a lowest-terms integer pair with a positive denominator."""
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


class _Tables:
    """One family's b_m and structure pairs, and what one degree's sums need.
    What is kept is an immutable tuple replaced whole (a race builds one
    twice, alike), so a reader needs no lock.  Every row is integer numerators
    over one denominator, node rows and coefficients in lowest terms.

    All of it comes from sigma and tau of ``Family.pearson_pair``, scaled to
    coprime integers once (``pearson``): sigma = s0 + s1 x + s2 x^2 and tau =
    t0 + t1 x, with phi = sigma + tau and u_j = j s2 + t1, so that lambda_n =
    -n u_(n-1); t1 < 0 and s2 <= 0 on every family, so u_j < 0 for j >= 0.

    P_n is a terminating hypergeometric series in the falling factorials
    x^(k) = x (x-1) ... (x-k+1).  As sigma(0) = 0 on every family, sigma
    Delta Nabla x^(k) + tau Delta x^(k) = -lambda_k x^(k) + k phi(k-1) x^(k-1)
    and lambda_n - lambda_j = -(n-j) u_(n+j-1), so the equation on P_n gives
    U_n P_n = sum_j c_j x^(j), U_n = u_(n-1) ... u_(2n-2), from c_n = U_n by
        c_j = c_(j+1) (j+1) phi(j) / ((n-j) u_(n+j-1)),
    so c_j = C(n,j) phi(j) ... phi(n-1) u_(n-1) ... u_(n+j-2) is an integer
    and each division is exact.  ``end_values``, the one evaluator of P_n
    (``Family.eval_points`` and the ends of the node values), builds the row
    c_j q^(n-j) once, each step big times small over small, and runs Horner
    acc <- c_j q^(n-j) + (X - j q) acc at each integer X, from acc = U_n down
    to j = 0, which leaves U_n q^n P_n(X/q), U_n of the sign (-1)^n.

    The next two coefficients of P_m in powers of x, read off the same
    equation, and the recurrence x P_m = P_(m+1) + ... + b_m P_(m-1) give
        b_0 = 0,  b_m = m u_(m-2) Q_m / (u_(2m-3) u_(2m-2)^2 u_(2m-1)),
    with Q_m = phi(m-1) (s1 u_(2m-2) - s2 phi(m-1)) (as sigma(0) = 0), up to
    sign Res_x(sigma(x), phi(x+m-1))/s2.  The ladder target's Q_k
    (Delta P_n = n Q_(n-1)) solve the equation with the same sigma and
    tau(x+1) + Delta sigma(x), so the structure relation P_m = Q_m +
    e_m Q_(m-1) + f_m Q_(m-2), e_m the difference of the second coefficients
    of P_m and Q_m and f_m = (m-1) b_m - m b'_(m-1) over both recurrences, reads
        e_m = -m (2 s2 m u_(m-1) + t1 (s1 + t1) - s2 (2 t0 + t1)) / (u_(2m) u_(2m-2)),
        f_m = -(m-1) s2 b_m / u_(m-2),
    so f_1 = 0, and f_m = 0 for every m where s2 = 0: on Charlier, Meixner and
    Kravchuk.  The formulas are homogeneous of degree 0 in (sigma, tau), so
    the integer scale is free.  b_0 = e_0 = f_0 = 0 (the views
    ``Family.recurrence_b`` and ``structure_pair`` answer m = 0), and every
    other denominator is nonzero on the families' domains but one removable
    0/0, written cancelled: at m = 1 u_(m-2)/u_(2m-3) = 1, both zero on Hahn
    at alpha + beta = -1.  The factors of b_m are written once
    (``b_factors``), and f_m is read off them.  Each coefficient is a
    lowest-terms integer pair with a positive denominator.

    The quadrature row (L, den), E c = sum_x L_x c(x) / den for every c of
    degree at most k, lives on the nodes x = 0 .. t, t = k cut at the last
    support point (N on Kravchuk, N-1 on Hahn).  It comes from the Pearson
    pair Delta(sigma w) = tau w, sigma(0) = 0: summed by parts, E[tau f +
    sigma Nabla f] = 0, so g_x = phi(x) L_x - sigma(x+1) L_(x+1) vanishes
    against every polynomial of degree below t on the nodes, which makes it a
    multiple of (-1)^x C(t,x).  From L_t = 1, for x = t-1 .. 0,
        phi(x) L_x = sigma(x+1) L_(x+1) + (-1)^(t-x) C(t,x) phi(t),
    and den = sum_x L_x since E 1 = 1.  phi vanishes on a support only at its
    last point, where the last term then vanishes and the walk is the
    weight's own ratio; every division is below it.  Each L_x is an integer
    numerator over phi(x) ... phi(t-1), so a step is big times small, and one
    prefix product puts the row over one denominator.  No gcd is taken: it
    costs about what it saves in the dot products.

    P_n at the row's nodes 0 .. t+1 is V/U_n, V integers: at 0, 1 and t+1
    from the falling-factorial row (``end_values``), and at 2 .. t from the
    difference equation read as a recurrence in x,
        phi(x) V(x+1) = (2 sigma + tau - lambda_n)(x) V(x) - sigma(x) V(x-1),
    so each step is two big times small products and one exact division.  The
    steps divide by phi at x = 1 .. t-1 only, below the last support point,
    since Horner gives t+1.  What ``direct`` and ``difference`` need at
    degree n is kept for the last n asked for (``degree``): the row at k =
    2n, the node values, and d_0^2/d_n^2 = 1/(b_1 ... b_n) over their
    denominators, one product of the n unreduced pairs (``b_factors``).  No
    coefficient is kept.  Hahn's ``expansion`` builds b_m, e_m, f_m as it
    steps and keeps its Gram state (m, g, h, u, d) before step m, which a
    later call at degree m or above goes on from (``fisher_expansion``), so
    a rising degree sweep takes each step once; the norm product builds none,
    and the ladder families' ``expansion`` reads the Pearson pair itself."""

    def __init__(self, fam: Family):
        self.fam = fam
        # sigma and tau over the smallest integer scale, which keeps the
        # quadrature row's integers smallest
        s0, s1, s2, t0, t1, _ = fam.pearson_pair()
        g = math.gcd(s0, s1, s2, t0, t1)
        self.pearson = s0 // g, s1 // g, s2 // g, t0 // g, t1 // g
        self.kept_degree = (None,)         # (n, L, V, num, den) of ``degree``
        self.kept_gram = (1, 1, 0, 0, 1)   # (m, g, h, u, d) of Hahn's expansion, before step m

    def degree(self, n: int) -> tuple:
        """(L, V, num, den) of degree n: the quadrature row L at k = 2n, P_n
        at its nodes over one denominator as integers V, and num/den =
        d_0^2/d_n^2 over the row's denominator times V's squared."""
        kept = self.kept_degree
        if kept[0] != n:
            row, rd = self.quadrature_row(2 * n)
            v, vd = self.node_values(n, len(row) - 1)
            b = list(map(self.b_factors, range(1, n + 1)))
            num, den = math.prod(d for _, d in b), math.prod(x for x, _ in b)
            kept = self.kept_degree = n, row, v, num, rd * vd * vd * den
        return kept[1:]

    def b_factors(self, m: int) -> Tuple[int, int]:
        """b_m, m >= 1, as the unreduced integer pair of the class docstring."""
        _, s1, s2, t0, t1 = self.pearson
        u1 = (2 * m - 1) * s2 + t1                           # u_(2m-1)
        u2 = u1 - s2                                         # u_(2m-2)
        phi = (s2 * (m - 1) + s1 + t1) * (m - 1) + t0        # phi(m-1), s0 = 0
        q = phi * (s1 * u2 - s2 * phi)
        if m == 1:   # cancelled: u_(m-2)/u_(2m-3) = 1
            return q, u2 * u2 * u1
        return m * ((m - 2) * s2 + t1) * q, (u2 - s2) * u2 * u2 * u1

    def coefficients(self, m: int) -> tuple:
        """(b_m, (e_m, f_m)), m >= 1, as lowest-terms integer pairs, by the
        class docstring."""
        _, s1, s2, t0, t1 = self.pearson
        um1, u0 = (m - 1) * s2 + t1, 2 * m * s2 + t1        # u_(m-1), u_(2m)
        e = _lowest(-m * (2 * s2 * m * um1 + t1 * (s1 + t1) - s2 * (2 * t0 + t1)),
                    u0 * (u0 - 2 * s2))
        bn, bd = self.b_factors(m)
        f = _lowest(-(m - 1) * s2 * bn, bd * (um1 - s2)) if m > 1 else (0, 1)
        return _lowest(bn, bd), (*e, *f)

    def node_values(self, n: int, t: int) -> Tuple[Tuple[int, ...], int]:
        # the steps in x of the class docstring at the nodes 0 .. t+1, over
        # the ends' denominator
        ends, den = self.end_values(n, (0, 1, t + 1) if t else (0, 1))
        s0, s1, s2, t0, t1 = self.pearson
        lam = -n * ((n - 1) * s2 + t1)
        v = ends[:2]
        for x in range(1, t):
            sig, tx = (s2 * x + s1) * x + s0, t1 * x + t0
            v.append(((2 * sig + tx - lam) * v[-1] - sig * v[-2]) // (sig + tx))
        # U_n is far from lowest terms on Hahn (N = 400, n = 200: 2162 bits
        # to 1008): one gcd, signed for den > 0, shrinks what the routes square
        v += ends[2:]
        g = math.gcd(den, *v) if den > 0 else -math.gcd(den, *v)
        return tuple([x // g for x in v]), den // g

    def end_values(self, n: int, xs, q: int = 1) -> Tuple[list, int]:
        # U_n q^n P_n(X/q) at each integer X of xs by the falling-factorial
        # row of the class docstring, built from c_n = U_n down to c_0
        s0, s1, s2, t0, t1 = self.pearson
        row = [math.prod(j * s2 + t1 for j in range(n - 1, 2 * n - 1))]
        for j in range(n - 1, -1, -1):
            phi = (s2 * j + s1 + t1) * j + s0 + t0
            row.append(row[-1] * (q * (j + 1) * phi) // ((n - j) * ((n + j - 1) * s2 + t1)))
        values = []
        for x in xs:
            acc = row[0]
            for c, jq in zip(row[1:], range((n - 1) * q, -1, -q)):
                acc = c + (x - jq) * acc
            values.append(acc)
        return values, row[0] * q ** n

    def quadrature_row(self, k: int) -> Tuple[Tuple[int, ...], int]:
        # the Pearson recurrence of the class docstring, on the numerators
        # N_x = L_x phi(x) ... phi(t-1) from N_t = 1
        s0, s1, s2, t0, t1 = self.pearson
        last = self.fam.support().b
        t = k if last is None else min(k, last - 1)
        phi = [(s2 * x + s1 + t1) * x + s0 + t0 for x in range(t + 1)]
        c, p, nums = phi[t], 1, [1]
        for x in range(t - 1, -1, -1):
            c = -c * (x + 1) // (t - x)     # (-1)^(t-x) C(t,x) phi(t)
            nums.append(((s2 * (x + 1) + s1) * (x + 1) + s0) * nums[-1] + c * p)
            p *= phi[x]
        # over phi(0) ... phi(t-1): N_x times phi(0) ... phi(x-1)
        row = tuple(map(mul, reversed(nums), accumulate(phi[:t], mul, initial=1)))
        return row, sum(row)


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _tables(fam: Family) -> _Tables:
    return _Tables(fam)


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

    def pearson_pair(self):
        # sigma = x, tau = mu - x, with mu = u/d
        u, d = self.mu.as_integer_ratio()
        return 0, d, 0, u, -d, d

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

    def reduced_norm(self, n):
        self.check_degree(n)
        return NormValue(Fraction(math.factorial(n)) * self.mu ** n,
                         exp_coeff=self.mu)

    def ladder_target(self, n):
        self.check_ladder_degree(n)
        return self, Fraction(n)

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

    def pearson_pair(self):
        # sigma = x, tau = gamma mu + (mu - 1) x, with gamma = g/gd and mu = u/ud
        (g, gd), (u, ud) = self.gamma.as_integer_ratio(), self.mu.as_integer_ratio()
        return 0, gd * ud, 0, g * u, gd * (u - ud), gd * ud

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

    def reduced_norm(self, n):
        self.check_degree(n)
        rational = Fraction(math.factorial(n)) * pochhammer(self.gamma, n) * self.mu ** n
        return NormValue(rational, pow_base=1 - self.mu,
                         pow_expo=-(self.gamma + 2 * n))

    def ladder_target(self, n):
        self.check_ladder_degree(n)
        return Meixner(self.gamma + 1, self.mu), Fraction(n)

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

    def pearson_pair(self):
        # sigma = x, tau = (N p - x)/(1 - p), with p = u/d
        u, d = self.p.as_integer_ratio()
        return 0, d - u, 0, self.N * u, -d, d - u

    def reduced_weight(self, x):
        x = self.check_support(x)
        return math.comb(self.N, x) * self.p ** x * (1 - self.p) ** (self.N - x)

    def weight_ratio(self, x):
        x = self.check_support(x)
        if x < 1:
            raise OutOfSupport("weight ratio needs x >= 1")
        return Fraction(x) * (1 - self.p) / (self.p * (self.N - x + 1))

    def reduced_norm(self, n):
        self.check_degree(n)
        rational = (Fraction(math.factorial(n) * math.factorial(self.N),
                             math.factorial(self.N - n))
                    * self.p ** n * (1 - self.p) ** n)
        return NormValue(rational)

    def ladder_target(self, n):
        self.check_ladder_degree(n)
        return Kravchuk(self.p, self.N - 1), Fraction(n)

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

    def pearson_pair(self):
        # sigma = (N + alpha) x - x^2, tau = (beta + 1)(N - 1) - (alpha + beta + 2) x,
        # over d = lcm(den alpha, den beta), with alpha = p/d and beta = q/d
        (p, pd), (q, qd) = self.alpha.as_integer_ratio(), self.beta.as_integer_ratio()
        d, N = math.lcm(pd, qd), self.N
        p, q = p * (d // pd), q * (d // qd)
        return 0, N * d + p, -d, (q + d) * (N - 1), -(p + q + 2 * d), d

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

#: each family's parameters, in constructor order
_REQUIRED = {tag: tuple(f.name for f in fields(cls)) for tag, cls in _TAGS.items()}


def _family_class(tag: str, names) -> type:
    """The class of ``tag`` (any case), whose parameters must be ``names``."""
    tag = tag.lower()
    if tag not in _TAGS:
        raise ValueError(f"unknown family {tag!r}; choose from {sorted(_TAGS)}")
    required = _REQUIRED[tag]
    missing = [k for k in required if k not in names]
    extra = [k for k in names if k not in required]
    if missing:
        raise ValueError(f"{tag} requires parameters: {', '.join(missing)}")
    if extra:
        raise ValueError(f"{tag} does not take: {', '.join(sorted(extra))}")
    return _TAGS[tag]


def make_family(tag: str, **params) -> Family:
    """Build a family from its tag and named parameters (None: not given).
    Raises ParameterDomainError for out-of-domain values and ValueError for
    unknown tags or missing/extra parameters."""
    cls = _family_class(tag, [k for k, v in params.items() if v is not None])
    return cls(*(params[k] for k in _REQUIRED[cls.tag]))
