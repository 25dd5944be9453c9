"""Bit-identity of the ladder families' routes at high degree.

``test_golden`` stops at n <= 60 and ``test_golden_deep`` pins Hahn only.
Here one sha256 pins the ``p/q`` text of ``expansion``, ``direct`` and
``difference`` on a seeded sample of Charlier, Meixner and Kravchuk
families at degrees 100..300: Meixner with mu up to 99/100, and Kravchuk
with N <= 300 at degrees up to N - 1, the last one always included.  A
change to the expansion sum, the norm ratio, the quadrature row or the node
values that moves one bit of one value fails here.  When a change is meant
to move values, recompute the digest with ``ladder_lines`` and say so in the
change notes.
"""

import hashlib
import random
from fractions import Fraction

from dopfisher.families import Charlier, Kravchuk, Meixner
from dopfisher.fisher import fisher_difference, fisher_direct, fisher_expansion

F = Fraction

SEED = 27
FAMILIES = 5        # per family kind
DEGREES = 3
DIGEST = "50a83d12175565ed50397971b94d6921d5ae9d121698e28bb8cc45c032d8f667"


def _rational(rng, low, high, max_den=60):
    """A rational strictly inside (low, high)."""
    while True:
        den = rng.randint(1, max_den)
        value = F(rng.randint(int(low * den) - 1, int(high * den) + 1), den)
        if low < value < high:
            return value


def ladder_cases(seed=SEED, count=FAMILIES):
    """The seeded sample: (family, sorted degrees) pairs.  The first Meixner
    family has mu = 99/100 and every other one mu in [1/2, 99/100]; every
    Kravchuk family runs its top degree N - 1."""
    rng = random.Random(seed)
    for i in range(count):
        yield Charlier(_rational(rng, 0, 20)), sorted(rng.sample(range(100, 301), DEGREES))
        mu = F(99, 100) if i == 0 else F(rng.randint(50, 99), 100)
        yield (Meixner(_rational(rng, 0, 10), mu),
               sorted(rng.sample(range(100, 301), DEGREES)))
        N = rng.randint(101, 300)
        yield (Kravchuk(_rational(rng, 0, 1), N),
               sorted(rng.sample(range(100, N - 1), DEGREES - 1)) + [N - 1])


def _text(value):
    return f"{value.numerator}/{value.denominator}"


def ladder_lines(seed=SEED, count=FAMILIES):
    """One text line per family and degree: the three routes' p/q."""
    for fam, degrees in ladder_cases(seed, count):
        for n in degrees:
            values = fisher_expansion(fam, n), fisher_direct(fam, n), fisher_difference(fam, n)
            yield (f"{fam!r} n={n} " + " ".join(
                f"{route}={_text(v)}" for route, v in
                zip(("expansion", "direct", "difference"), values)))


def test_sample_reaches_high_degree_and_the_top_kravchuk_degree():
    cases = list(ladder_cases())
    degrees = [n for _, ns in cases for n in ns]
    assert min(degrees) >= 100 and max(degrees) > 250
    meixner = [fam for fam, _ in cases if fam.tag == "meixner"]
    assert F(99, 100) in [fam.mu for fam in meixner]
    kravchuk = [(fam, ns) for fam, ns in cases if fam.tag == "kravchuk"]
    assert all(fam.N <= 300 and ns[-1] == fam.N - 1 for fam, ns in kravchuk)
    assert {fam.tag for fam, _ in cases} == {"charlier", "meixner", "kravchuk"}


def test_ladder_values_are_bit_identical_to_the_pinned_digest():
    digest = hashlib.sha256()
    for line in ladder_lines():
        expansion, direct, difference = (part.split("=")[1] for part in line.split()[-3:])
        assert expansion == direct == difference
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == DIGEST
