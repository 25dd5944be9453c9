"""Independent brute-force oracles for the tests.

Nothing here touches the package's recurrences, ladders or closed forms: the
polynomials are rebuilt by exact Gram-Schmidt orthogonalization of the
monomials, with inner products taken from the weight's moments.  Bounded
supports use plain finite sums; the Poisson-type and negative-binomial-type
weights use their classical falling-factorial moments, so every number stays
an exact rational.

The last section keeps the straightforward formulas that the fast exact
routes replaced -- the pointwise recurrence, Pochhammer connection
coefficients, norm-ratio expansion sum, the Hahn 4F3 connection sum and the
Fraction forms of the Hahn recurrence coefficients -- as references for them.
"""

import math
from fractions import Fraction
from functools import lru_cache


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


def norm_ratio_expansion(fam, n: int) -> Fraction:
    """sum_j a_j^2 d_j^2/d_n^2 with every norm ratio taken from the norms."""
    d_n = fam.reduced_norm(n)
    return sum((a * a * fam.reduced_norm(j).exact_ratio(d_n)
                for j, a in enumerate(fam.connection_coeffs(n))), Fraction(0))


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
