"""Independent brute-force oracles for the tests.

Nothing here touches the package's recurrences, ladders or closed forms: the
polynomials are rebuilt by exact Gram-Schmidt orthogonalization of the
monomials, with inner products taken from the weight's moments.  Bounded
supports use plain finite sums; the Poisson-type and negative-binomial-type
weights use their classical falling-factorial moments, so every number stays
an exact rational.  For the package's own moment sums on infinite lattices
there is also a plain truncated big-float sum over the lattice points, which
uses no moment at all.

The last section keeps the straightforward formulas that the fast exact
routes replaced -- the Pochhammer product, and the terminating pFq and the
Hahn 5F4 summed term by term (for the integer Horner kernels of
``numerics`` and ``families._hahn_5f4``); the pointwise recurrence, the
monomial recurrence and the Delta-walk in Fraction arithmetic (for the
integer rows of ``poly_row`` and ``connection_row``), Pochhammer
connection coefficients, the norm-ratio expansion sum, the running-product
expansion sum, the Hahn 4F3 connection sum and the textbook Fraction
forms of the Meixner, Kravchuk and Hahn recurrence coefficients -- as
references for them, and mpmath's own 3F2 for the series the Hahn closed
form sums in closed form.
The Hahn closed form as written before any cancellation (its products of
length N, and its removable 0/0s on alpha + beta = -1, where it runs on
truncated Laurent series) and the norm ratio d_0^2/d_n^2 taken from the
norms themselves are references for the cancelled forms.

Last, printed decimals: a rational rounded by the ``decimal`` module and
laid out as ``mpmath.nstr`` lays out its digits.
"""

import decimal
import math
from fractions import Fraction
from functools import lru_cache

import mpmath

from dopfisher.numerics import DenominatorPole, NonTerminatingSeries


@lru_cache(maxsize=None)
def stirling2(k: int, j: int) -> int:
    """Stirling numbers of the second kind (monomials -> falling factorials)."""
    if k == j:
        return 1
    if j == 0 or j > k:
        return 0
    return j * stirling2(k - 1, j) + stirling2(k - 1, j - 1)


def normalized_moments(fam, k_max: int):
    """[E x^0, ..., E x^k_max] under the weight, normalized to total mass 1."""
    support = fam.support()
    if support.b is not None:
        total = sum(fam.reduced_weight(x) for x in support.points())
        return [sum(fam.reduced_weight(x) * Fraction(x) ** k for x in support.points()) / total
                for k in range(k_max + 1)]
    # infinite supports: falling-factorial moments are elementary
    tag = fam.tag
    if tag == "charlier":
        falling = [fam.mu ** j for j in range(k_max + 1)]
    elif tag == "meixner":
        ratio = fam.mu / (1 - fam.mu)
        falling = [Fraction(1)]
        for j in range(1, k_max + 1):
            falling.append(falling[-1] * (fam.gamma + j - 1) * ratio)
    else:
        raise ValueError(f"no moment formula for {tag}")
    return [sum(stirling2(k, j) * falling[j] for j in range(k + 1))
            for k in range(k_max + 1)]


def truncated_square_sum(fam, coeffs, points: int, dps: int = 60):
    """sum_{x < points} w(x) q(x)^2 over the Charlier or Meixner lattice at
    ``dps`` digits, for q with monomial coefficients ``coeffs`` and the
    reduced weight (w(0) = 1) walked up by its own term ratio.  There is no
    tail bound: ``points`` must reach well past where the terms fall below
    the wanted accuracy."""
    def mpf(v):
        return mpmath.mpf(v.numerator) / v.denominator

    with mpmath.workdps(dps):
        mu = mpf(fam.mu)
        gamma = mpf(fam.gamma) if fam.tag == "meixner" else None
        cs = [mpf(Fraction(c)) for c in coeffs]
        weight, total = mpmath.mpf(1), mpmath.mpf(0)
        for x in range(points):
            q = mpmath.mpf(0)
            for c in reversed(cs):
                q = q * x + c
            total += weight * q * q
            # Charlier w(x+1)/w(x) = mu/(x+1); Meixner mu (gamma+x)/(x+1)
            weight *= mu / (x + 1) if gamma is None else mu * (gamma + x) / (x + 1)
        return total


def forward_difference(coeffs):
    """Monomial coefficients of q(x+1) - q(x), by the binomial theorem."""
    out = [Fraction(0)] * max(len(coeffs) - 1, 1)
    for i, c in enumerate(coeffs):
        for k in range(i):
            out[k] += c * math.comb(i, k)
    return out


def gram_schmidt_coeffs(fam, n: int):
    """Monomial coefficients of the monic degree-n orthogonal polynomial,
    built by Gram-Schmidt with exact rational moments."""
    moments = normalized_moments(fam, 2 * n)

    def inner(p, q):
        return sum(a * b * moments[i + j]
                   for i, a in enumerate(p) for j, b in enumerate(q))

    basis = []
    for d in range(n + 1):
        coeffs = [Fraction(0)] * d + [Fraction(1)]  # x^d
        for prev in basis:
            proj = inner(coeffs, prev) / inner(prev, prev)
            coeffs = [c - proj * (prev[i] if i < len(prev) else 0)
                      for i, c in enumerate(coeffs)]
        basis.append(coeffs)
    return tuple(basis[n])


def eval_coeffs(coeffs, x):
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * x + c
    return value


def brute_force_fisher_bounded(fam, n: int) -> Fraction:
    """Defining Fisher sum straight from Gram-Schmidt polynomials (bounded
    supports), sharing nothing with the package's evaluation paths."""
    coeffs = gram_schmidt_coeffs(fam, n)
    sup = fam.support()
    norm = sum(fam.reduced_weight(x) * eval_coeffs(coeffs, Fraction(x)) ** 2
               for x in sup.points())
    total = sum(fam.reduced_weight(x)
                * (eval_coeffs(coeffs, Fraction(x + 1)) - eval_coeffs(coeffs, Fraction(x))) ** 2
                for x in sup.points())
    return total / norm


# ---------------------------------------------------------------------------
# Straightforward forms of the package's fast exact formulas
# ---------------------------------------------------------------------------


def rising(a, k: int) -> Fraction:
    """(a)_k = a (a+1) ... (a+k-1)."""
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


def _pfq_terms(upper, lower, z, terms: int):
    """The first ``terms`` terms of sum_k prod (a)_k / prod (b)_k z^k / k!,
    one Fraction operation (and gcd) per factor."""
    term = total = Fraction(1)
    for k in range(terms - 1):
        for a in upper:
            term = term * (a + k)
        for b in lower:
            term = term / (b + k)
        term = term * z / (k + 1)
        total = total + term
    return total


def terminating_pfq_terms(spec) -> Fraction:
    """A terminating pFq summed term by term up to its termination index m,
    the smallest -a over the nonpositive-integer upper parameters a.

    Raises NonTerminatingSeries when there is no such a, and DenominatorPole
    when a lower parameter b = -j vanishes inside the sum, that is, when the
    ratio of term j+1 divides by b + j = 0 with j < m."""
    def nonpositive_integer(x):
        return Fraction(x).denominator == 1 and x <= 0

    ends = [-int(a) for a in spec.numerator if nonpositive_integer(a)]
    if not ends:
        raise NonTerminatingSeries(f"no nonpositive-integer upper parameter in {spec}")
    m = min(ends)
    if any(nonpositive_integer(b) and -b < m for b in spec.denominator):
        raise DenominatorPole(f"a lower parameter vanishes before term {m}: {spec}")
    return _pfq_terms(spec.numerator, spec.denominator, spec.argument, m + 1)


def hahn_5f4_terms(n: int, s: Fraction, upper: tuple, lower: tuple) -> Fraction:
    """5F4(1-n, 1, *upper, u; *lower, l; -1) of the Hahn closed form, with
    u = 2-n-(s+1)/2 and l = 1-n-s, summed term by term in Fraction arithmetic.
    The last term's factor (u+n-2)/(l+n-2) is 1/2 for every s and is written
    so, which keeps the removable 0/0 of s = -1 exact."""
    u, l = 2 - n - (s + 1) / 2, 1 - n - s
    term = total = Fraction(1)
    for i in range(n - 1):
        ratio = Fraction(1, 2) if i == n - 2 else (u + i) / (l + i)
        for a in upper:
            ratio *= a + i
        for b in lower:
            ratio /= b + i
        term *= (n - 1 - i) * ratio   # (1-n+i) (1+i) (-1) / (i+1)
        total += term
    return total


def pochhammer_connection(n: int, r: Fraction) -> list:
    """Meixner/Kravchuk connection coefficients a_j = n (j+1)_(n-1-j) r^(n-1-j),
    each one computed on its own."""
    return [n * rising(Fraction(j + 1), n - 1 - j) * r ** (n - 1 - j)
            for j in range(n)]


def pointwise_value(fam, n: int, x) -> Fraction:
    """P_n(x) by a three-term recurrence run for this one point."""
    if n == 0:
        return Fraction(1)
    prev, cur = Fraction(1), x - fam.recurrence_a(0)
    for m in range(1, n):
        prev, cur = cur, (x - fam.recurrence_a(m)) * cur - fam.recurrence_b(m) * prev
    return cur


def recurrence_monomials(fam, n: int) -> tuple:
    """Monomial coefficients of P_n from P_(m+1) = (x - a_m) P_m - b_m P_(m-1),
    in plain Fraction arithmetic, asking the family for each a_m and b_m."""
    prev, cur = [], [Fraction(1)]
    for m in range(n):
        a, b = fam.recurrence_a(m), fam.recurrence_b(m) if m else 0
        nxt = [Fraction(0)] + cur   # x P_m
        for i, c in enumerate(cur):
            nxt[i] -= a * c
        for i, c in enumerate(prev):
            nxt[i] -= b * c
        prev, cur = cur, nxt
    return tuple(cur)


def as_fractions(row) -> list:
    """The Fractions of an integer row (numerators, denominator), such as
    ``poly_row`` or ``connection_row`` return."""
    nums, den = row
    return [Fraction(c, den) for c in nums]


def delta_walk_connection(fam, n: int) -> list:
    """Connection coefficients a_j of Delta P_n = sum_j a_j P_j by Delta applied
    to the three-term recurrence, in plain Fraction arithmetic, asking the
    family for each a_m and b_m:

        Delta P_(m+1) = (x + 1 - a_m) Delta P_m + P_m - b_m Delta P_(m-1),

    with x P_k = P_(k+1) + a_k P_k + b_k P_(k-1)."""
    if n == 0:
        return []
    a = [fam.recurrence_a(k) for k in range(n)]
    b = [fam.recurrence_b(k) for k in range(n)]
    prev, cur = [], [Fraction(1)]   # Delta P_0, Delta P_1
    for m in range(1, n):
        nxt = [Fraction(0)] * (m + 1)
        for k, c in enumerate(cur):
            # x P_k = P_(k+1) + a_k P_k + b_k P_(k-1)
            nxt[k + 1] += c
            nxt[k] += (a[k] + 1 - a[m]) * c
            if k:
                nxt[k - 1] += b[k] * c
        nxt[m] += 1   # + P_m
        for k, c in enumerate(prev):
            nxt[k] -= b[m] * c
        prev, cur = cur, nxt
    return cur


def norm_ratio_expansion(fam, n: int) -> Fraction:
    """sum_j a_j^2 d_j^2/d_n^2 with every norm ratio taken from the norms."""
    d_n = fam.reduced_norm(n)
    return sum((a * a * fam.reduced_norm(j).exact_ratio(d_n)
                for j, a in enumerate(as_fractions(fam.connection_row(n)))), Fraction(0))


def running_product_expansion(fam, n: int) -> Fraction:
    """sum_j a_j^2 d_j^2/d_n^2 with the norm ratios as the running product
    1/(b_(j+1) ... b_n), accumulated in Fraction arithmetic from j = n-1 down."""
    total, ratio = Fraction(0), Fraction(1)
    coeffs = as_fractions(fam.connection_row(n))
    for j in range(n - 1, -1, -1):
        ratio /= fam.recurrence_b(j + 1)
        total += coeffs[j] * coeffs[j] * ratio
    return total


def hahn_connection_4f3(fam, n: int) -> list:
    """The paper's Hahn connection coefficients: a_j = n (prefactor) times a
    terminating 4F3 at unit argument, summed term by term."""
    al, be, N = fam.alpha, fam.beta, fam.N
    s = al + be
    out = []
    for j in range(n):
        m = n - 1 - j
        pref = (Fraction(math.comb(n - 1, j)) * rising(Fraction(2 + j - N), m)
                * rising(2 + j + be, m) / rising(2 + j + n + s, m))
        upper = (Fraction(j - n + 1), Fraction(1 + j - N), j + be + 1, 2 + n + j + s)
        lower = (Fraction(2 + j - N), j + be + 2, 2 * j + s + 2)
        f43 = Fraction(0)
        for k in range(m + 1):   # (j-n+1)_k vanishes past k = n-1-j
            term = Fraction(1, math.factorial(k))
            for a in upper:
                term *= rising(a, k)
            for b in lower:
                term /= rising(b, k)
            f43 += term
        out.append(n * pref * f43)
    return out


def hahn_recurrence(fam, m: int):
    """(a_m, b_m) of the monic Hahn recurrence, a_m = A_m + C_m and
    b_m = A_(m-1) C_m, from the Fraction forms of A_m and C_m."""
    al, be, N = fam.alpha, fam.beta, fam.N
    s = al + be

    def coef_a(k):
        if k == 0:
            # the (s+1) factor cancels; written cancelled so s = -1 stays finite
            return (be + 1) * (N - 1) / (s + 2)
        return ((k + s + 1) * (k + be + 1) * (N - 1 - k)
                / ((2 * k + s + 1) * (2 * k + s + 2)))

    def coef_c(k):
        if k == 0:
            return Fraction(0)
        return k * (k + s + N) * (k + al) / ((2 * k + s) * (2 * k + s + 1))

    b = coef_a(m - 1) * coef_c(m) if m else Fraction(0)
    return coef_a(m) + coef_c(m), b


def meixner_recurrence(fam, m: int):
    """(a_m, b_m) of the monic Meixner recurrence, the textbook Fraction forms
    a_m = (m + (m + gamma) mu)/(1 - mu), b_m = m (m + gamma - 1) mu/(1 - mu)^2."""
    g, mu = fam.gamma, fam.mu
    return (m + (m + g) * mu) / (1 - mu), m * (m + g - 1) * mu / (1 - mu) ** 2


def kravchuk_recurrence(fam, m: int):
    """(a_m, b_m) of the monic Kravchuk recurrence, the textbook Fraction forms
    a_m = p (N - m) + m (1 - p), b_m = m p (1 - p) (N - m + 1)."""
    p, N = fam.p, fam.N
    return p * (N - m) + m * (1 - p), m * p * (1 - p) * (N - m + 1)


def hahn_c3_hyp3f2(s, n: int):
    """3F2(1, a+1, b; n+1, a; -1), a = (s+1)/2 + n, b = s+n+1, by mpmath's
    hyp3f2 at 50 digits (its own summation of the non-terminating series)."""
    with mpmath.workdps(50):
        s = mpmath.mpf(s.numerator) / s.denominator
        a = (s + 1) / 2 + n
        return mpmath.hyp3f2(1, a + 1, s + n + 1, n + 1, a, -1)


# ---------------------------------------------------------------------------
# The Hahn closed form on alpha + beta = -1, through its removable 0/0s
# ---------------------------------------------------------------------------


class Laurent:
    """eps^v (c_0 + c_1 eps + ...), with c_0 != 0 and only the terms in
    ``coeffs`` known.  Products and quotients keep the shorter length;
    a sum is known up to the first unknown term of either side, and loses
    terms when its leading ones cancel."""

    #: known terms of an exact constant (padded to full series precision,
    #: or a sum with one would drop the other side's eps term)
    TERMS = 2

    def __init__(self, v: int, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            v += 1
        if not coeffs:
            raise ArithmeticError("every known term cancelled")
        self.v, self.coeffs = v, coeffs

    @classmethod
    def lift(cls, x):
        if isinstance(x, cls):
            return x
        return cls(0, [Fraction(x)] + [Fraction(0)] * (cls.TERMS - 1))

    def coeff(self, e: int) -> Fraction:
        """The eps^e coefficient; it must be known."""
        if e >= self.v + len(self.coeffs):
            raise ArithmeticError(f"eps^{e} term is not known")
        return self.coeffs[e - self.v] if e >= self.v else Fraction(0)

    def __add__(self, other):
        if not isinstance(other, Laurent) and other == 0:
            return self
        other = Laurent.lift(other)
        lo = min(self.v, other.v)
        hi = min(self.v + len(self.coeffs), other.v + len(other.coeffs))
        return Laurent(lo, [self.coeff(e) + other.coeff(e) for e in range(lo, hi)])

    __radd__ = __add__

    def __neg__(self):
        return Laurent(self.v, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = Laurent.lift(other)
        size = min(len(self.coeffs), len(other.coeffs))
        return Laurent(self.v + other.v,
                       [sum(self.coeffs[i] * other.coeffs[k - i] for i in range(k + 1))
                        for k in range(size)])

    __rmul__ = __mul__

    def inverse(self):
        c = self.coeffs
        out = [1 / c[0]]
        for k in range(1, len(c)):
            out.append(-sum(c[i] * out[k - i] for i in range(1, k + 1)) / c[0])
        return Laurent(-self.v, out)

    def __truediv__(self, other):
        return self * Laurent.lift(other).inverse()

    def __rtruediv__(self, other):
        return Laurent.lift(other) * self.inverse()

    def __pow__(self, k: int):
        out = Laurent.lift(1)
        for _ in range(k):
            out = out * self
        return out


def hahn_closed_on_the_line(alpha: Fraction, N: int, n: int) -> Fraction:
    """The Hahn closed Fisher value at beta = -1 - alpha, degree n >= 1.

    ``hahn_closed_uncancelled`` runs along beta = -1 - alpha + eps on
    truncated Laurent series in eps, and the eps^0 coefficient is the value
    on the line (every pole there is simple, so two known terms suffice).
    """
    eps = Laurent(1, [Fraction(1)] + [Fraction(0)] * (Laurent.TERMS - 1))
    value = Laurent.lift(hahn_closed_uncancelled(Fraction(alpha), -1 - Fraction(alpha) + eps,
                                                 N, n))
    if value.v < 0:
        raise ArithmeticError("the closed form has a pole on the line")
    return value.coeff(0)


def hahn_closed_uncancelled(al, be, N: int, n: int):
    """The Hahn closed Fisher value at degree n >= 1, as written before any
    cancellation: the leading factor with (N-n-1)!/(N-1)! and
    (s+2)_(N-1)/(s+n+1)_N, products of length N; b2 and d2 with
    (s+1)_(n-1)/((s+1)/2)_(n-1), a removable 0/0 on alpha + beta = -1; both
    5F4s summed term by term to their (1-n) termination, through the 0/0
    factor of their last term on that line; every Pochhammer built on its
    own.  ``al`` and ``be`` are Fractions, or Laurent series for the line.
    """
    s = al + be
    f1 = Fraction(math.factorial(n - 1))

    lead = (Fraction(n * n) * (s + 2 * n + 1)
            * math.factorial(N - n - 1) / math.factorial(n)
            * rising(s + n + 1, n) ** 2 * rising(s + 2, N - 1)
            / (rising(al + 1, n) * rising(be + 1, n)
               * rising(s + n + 1, N) * math.factorial(N - 1)))

    b1 = (f1 * (be + 1) * (s + N + 1)
          * rising(-s - n - N, n - 1) * rising(be + 2, n - 1)
          / (rising(s + n + 2, n - 1) * rising(-s - n - 1, n - 1)
             * (s + 2) * (N + be))) ** 2
    b2 = (Fraction(-1) ** (n - 1)
          * rising(al + 1, n - 1) * rising((s + 3) / 2, n - 1)
          * rising(s + 1, n - 1) * rising(Fraction(1 - N), n - 1)
          / (f1 * rising((s + 1) / 2, n - 1) * rising(be + 1, n - 1)
             * rising(s + N + 1, n - 1)))
    b3 = _pfq_terms((Fraction(1 - n), Fraction(1), 1 - n - be, 1 - n - s - N,
                     2 - n - (s + 1) / 2),
                    (1 - n - al, 2 - n - (s + 3) / 2, 1 - n - s, Fraction(1 - n + N)),
                    Fraction(-1), n)

    c1 = (2 * Fraction(-1) ** n * f1 ** 2 * (be + 1) * (s + N + 1)
          * rising(-s - n - N, n - 1)
          / (rising(s + n + 2, n - 1) ** 2
             * rising(-s - n - 1, n - 1) ** 2 * (s + 2) ** 2))
    c2 = (rising(be + 2, n - 1) * (1 - N) * (al + 1)
          * rising(-al - n, n - 1) * rising(Fraction(2 - N), n - 1)
          * (s + 2 * n + 1)
          / (Fraction(math.factorial(n)) * (N + be) ** 2)
          ) * rising(s + 2, n - 1)
    c3 = Fraction(n) / (2 * n + s + 1)

    d1 = (f1 * (N - 1) * (al + 1)
          * rising(-al - n, n - 1) * rising(Fraction(2 - N), n - 1)
          / (rising(s + n + 2, n - 1) * rising(-s - n - 1, n - 1)
             * (s + 2) * (N + be))) ** 2
    d2 = (Fraction(-1) ** (n - 1)
          * rising((s + 3) / 2, n - 1) * rising(be + 1, n - 1)
          * rising(s + N + 1, n - 1) * rising(s + 1, n - 1)
          / (f1 * rising(Fraction(1 - N), n - 1) * rising(al + 1, n - 1)
             * rising((s + 1) / 2, n - 1)))
    d3 = _pfq_terms((Fraction(1 - n), Fraction(1), Fraction(1 - n + N), 1 - n - al,
                     2 - n - (s + 1) / 2),
                    (2 - n - (s + 3) / 2, 1 - n - be, 1 - n - s - N, 1 - n - s),
                    Fraction(-1), n)

    return lead * (b1 * b2 * b3 + d1 * d2 * d3 + c1 * c2 * c3)


def norm_ratio_from_norms(fam, n: int) -> Fraction:
    """d_0^2/d_n^2 from the reduced norms themselves, whose Kravchuk and Hahn
    forms carry factorials and Pochhammers of length N."""
    return fam.reduced_norm(0).exact_ratio(fam.reduced_norm(n))


# ---------------------------------------------------------------------------
# Printed decimals
# ---------------------------------------------------------------------------


def decimal_layout(value: Fraction, dps: int) -> str:
    """``value`` rounded to ``dps`` significant digits by ``decimal`` (one
    correctly rounded division, ROUND_HALF_UP: ties away from zero), in
    mpmath.nstr's layout: fixed notation for a leading-digit exponent e
    with min(-(dps//3), -5) < e < dps, else one digit before the point and
    ``e+N``/``e-N``; no trailing zeros after the point, except one ``0``
    right after it; zero as ``0.0``."""
    if value == 0:
        return "0.0"
    context = decimal.Context(prec=dps, rounding=decimal.ROUND_HALF_UP)
    rounded = context.divide(decimal.Decimal(value.numerator),
                             decimal.Decimal(value.denominator))
    sign, digit_tuple, _ = rounded.as_tuple()
    digits = "".join(map(str, digit_tuple)).rstrip("0")
    e = rounded.adjusted()
    if min(-(dps // 3), -5) < e < dps:
        if e < 0:
            whole, frac = "0", "0" * (-e - 1) + digits
        else:
            whole, frac = digits[:e + 1].ljust(e + 1, "0"), digits[e + 1:]
        suffix = ""
    else:
        whole, frac = digits[0], digits[1:]
        suffix = f"e+{e}" if e > 0 else f"e{e}"
    return ("-" if sign else "") + whole + "." + (frac or "0") + suffix
