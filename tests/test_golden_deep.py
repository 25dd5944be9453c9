"""Bit-identity of Hahn ``expansion`` and ``closed`` at high degree.

``test_golden`` stops at n <= 60.  Here one sha256 pins the ``p/q`` text of
Hahn ``expansion`` and ``closed`` at degrees drawn from 61..150 on a seeded
sample of families with N <= 300, several of them on alpha + beta = -1,
where the recurrence and the closed form carry removable 0/0s.  A change to
the connection row, the expansion sum or the closed form that moves one bit
of one value fails here.  When a change is meant to move values, recompute
the digest with ``deep_lines`` and say so in the change notes.
"""

import hashlib
import random
from fractions import Fraction

from dopfisher.families import Hahn
from dopfisher.fisher import fisher_closed, fisher_expansion

F = Fraction

SEED = 20
FAMILIES = 20
DEGREES = 6
DIGEST = "52b27c6832dc50114e208b326e1804187a157dc3c6bff9df0df3051327f53ef1"


def _rational(rng, low, high, max_den=60):
    """A rational strictly inside (low, high)."""
    while True:
        den = rng.randint(1, max_den)
        value = F(rng.randint(int(low * den) - 1, int(high * den) + 1), den)
        if low < value < high:
            return value


def deep_cases(seed=SEED, count=FAMILIES):
    """The seeded sample: (family, sorted degrees) pairs, every third family
    on alpha + beta = -1."""
    rng = random.Random(seed)
    for i in range(count):
        N = rng.randint(62, 300)
        if i % 3 == 0:
            alpha = _rational(rng, -1, 0)
            fam = Hahn(alpha, -1 - alpha, N)
        else:
            fam = Hahn(_rational(rng, -1, 8), _rational(rng, -1, 8), N)
        top = min(150, N - 1)
        yield fam, sorted(rng.sample(range(61, top + 1), min(DEGREES, top - 60)))


def deep_lines(seed=SEED, count=FAMILIES):
    """One text line per family and degree: both routes' p/q."""
    for fam, degrees in deep_cases(seed, count):
        for n in degrees:
            e, c = fisher_expansion(fam, n), fisher_closed(fam, n)
            yield (f"{fam!r} n={n} expansion={e.numerator}/{e.denominator}"
                   f" closed={c.numerator}/{c.denominator}")


def test_sample_reaches_high_degree_and_the_hahn_line():
    cases = list(deep_cases())
    degrees = [n for _, ns in cases for n in ns]
    assert min(degrees) > 60 and max(degrees) > 140
    assert all(fam.N <= 300 for fam, _ in cases)
    assert sum(fam.alpha + fam.beta == -1 for fam, _ in cases) >= 5


def test_hahn_values_are_bit_identical_to_the_pinned_digest():
    digest = hashlib.sha256()
    for line in deep_lines():
        expansion, closed = (part.split("=")[1] for part in line.split()[-2:])
        assert expansion == closed
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == DIGEST
