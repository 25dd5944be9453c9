"""Limiting behaviour of the Fisher values in degree and parameters.

These are the closed limit formulas used both as standalone evaluators and as
convergence cross-checks against the exact expansion route.  All of them are
exact rationals for rational inputs.  The Charlier value n/mu is already
elementary, so only the Meixner and Kravchuk regimes appear here.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .numerics import PFQSpec, pochhammer, terminating_pfq, to_fraction


def meixner_large_n(gamma, mu, n: int) -> Fraction:
    """Degree asymptote (1-mu)/mu + (1-gamma)/(mu n).

    Expanding the closed form n(1-mu)^2/(mu(n+gamma-1)) 2F1(1-n, 1; 2-n-gamma; mu)
    in 1/n: the prefactor is 1 - (gamma-1)/n + ... and the k-th 2F1 term is
    mu^k (1 - k(gamma-1)/n + ...), so the 1/n coefficient is -(gamma-1)/mu.
    The next term is meixner_large_n_second_order(gamma, mu) / n^2.
    """
    gamma, mu = to_fraction(gamma), to_fraction(mu)
    return (1 - mu) / mu + (1 - gamma) / (mu * n)


def meixner_large_n_second_order(gamma, mu) -> Fraction:
    """The 1/n^2 coefficient c2 left after meixner_large_n.

    With a = gamma-1:  c2 = a(a-1)(1+mu)/(2(1-mu)) + a(3a-1)/2 + a^2 (1-mu)/mu.
    """
    gamma, mu = to_fraction(gamma), to_fraction(mu)
    a = gamma - 1
    return (a * (a - 1) * (1 + mu) / (2 * (1 - mu)) + a * (3 * a - 1) / 2
            + a * a * (1 - mu) / mu)


def meixner_mu_to_one(gamma, n: int, mu) -> Fraction:
    """mu -> 1 asymptote: [n/(n+gamma-1)] 2F1(1-n, 1; 2-n-gamma; 1) (1-mu)^2."""
    gamma, mu = to_fraction(gamma), to_fraction(mu)
    f21 = terminating_pfq(PFQSpec((Fraction(1 - n), Fraction(1)),
                                  (2 - n - gamma,), Fraction(1)))
    return Fraction(n) / (n + gamma - 1) * f21 * (1 - mu) ** 2


def meixner_mu_to_zero(gamma, n: int, mu) -> Fraction:
    """mu -> 0 asymptote: n / ((n+gamma-1) mu)."""
    gamma, mu = to_fraction(gamma), to_fraction(mu)
    return Fraction(n) / ((n + gamma - 1) * mu)


def meixner_gamma_to_infinity(n: int, mu, gamma) -> Fraction:
    """gamma -> infinity asymptote: n (1-mu)^2 / (mu gamma)."""
    gamma, mu = to_fraction(gamma), to_fraction(mu)
    return n * (1 - mu) ** 2 / (mu * gamma)


def meixner_gamma_to_zero(n: int, mu, gamma) -> Fraction:
    """gamma -> 0 asymptote: (n/gamma) (1-mu)^2 mu^(n-2)."""
    gamma, mu = to_fraction(gamma), to_fraction(mu)
    return Fraction(n) / gamma * (1 - mu) ** 2 * mu ** (n - 2)


def kravchuk_p_to_zero(n: int, N: int, p) -> Fraction:
    """p -> 0 asymptote: n / ((N-n+1) p)."""
    return Fraction(n) / ((N - n + 1) * to_fraction(p))


def kravchuk_p_to_one(n: int, N: int, p) -> Fraction:
    """p -> 1 asymptote: n! / ((N-n+1)_n (1-p)^n)."""
    p = to_fraction(p)
    return math.factorial(n) / (pochhammer(Fraction(N - n + 1), n) * (1 - p) ** n)


def kravchuk_max_degree(N: int, p) -> Fraction:
    """Exact value at the top degree n = N-1:  ((1-p)^(1-N) + (1-N)p - 1) / (N p^3)."""
    p = to_fraction(p)
    return ((1 - p) ** (1 - N) + (1 - N) * p - 1) / (N * p ** 3)


def kravchuk_max_degree_large_N(N: int, p) -> Fraction:
    """Large-N growth of the top-degree value: 1 / (N (1-p)^(N-1) p^3)."""
    p = to_fraction(p)
    return 1 / (N * (1 - p) ** (N - 1) * p ** 3)
