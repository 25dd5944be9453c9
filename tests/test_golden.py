"""Bit-identity of the exact routes across kernel rewrites.

One sha256 pins the ``p/q`` text of every route value of a seeded sample of
``fisher_report``s: all four families with random rational parameters,
N <= 90, n <= 60, and about one Hahn draw in five on alpha + beta = -1.  Any
change to an exact kernel that moves a single bit of a single value fails
here.  When a change is meant to move values (a new route, a new sample),
recompute the digest with ``golden_lines`` and say so in the change notes.
"""

import hashlib
import random
from fractions import Fraction

from dopfisher.families import Charlier, Hahn, Kravchuk, Meixner
from dopfisher.fisher import fisher_report

F = Fraction

SEED = 18
REPORTS = 300
DIGEST = "7da898ff1274c23aadbc55a82037a67848aabba792a6f2df84e1c1afd38c0a6b"


def _rational(rng, low, high, max_den=60):
    """A rational strictly inside (low, high)."""
    while True:
        den = rng.randint(1, max_den)
        value = F(rng.randint(int(low * den) - 1, int(high * den) + 1), den)
        if low < value < high:
            return value


def _family(rng):
    tag = rng.choice(("charlier", "meixner", "kravchuk", "hahn"))
    if tag == "charlier":
        return Charlier(_rational(rng, 0, 20))
    if tag == "meixner":
        return Meixner(_rational(rng, 0, 10), _rational(rng, 0, 1, 200))
    N = rng.randint(1, 90)
    if tag == "kravchuk":
        return Kravchuk(_rational(rng, 0, 1), N)
    alpha = _rational(rng, -1, 0) if rng.random() < 0.2 else None
    if alpha is not None:
        return Hahn(alpha, -1 - alpha, N)
    return Hahn(_rational(rng, -1, 8), _rational(rng, -1, 8), N)


def golden_cases(seed=SEED, count=REPORTS):
    """The seeded sample: (family, degree) pairs."""
    rng = random.Random(seed)
    for _ in range(count):
        fam = _family(rng)
        top = fam.max_degree()
        yield fam, rng.randint(0, 60 if top is None else min(60, top))


def golden_lines(seed=SEED, count=REPORTS):
    """One text line per report: family, degree and every route's p/q."""
    for fam, n in golden_cases(seed, count):
        report = fisher_report(fam, n)
        values = " ".join(f"{m.value}={v.numerator}/{v.denominator}"
                          for m, v in report.values.items())
        yield f"{fam!r} n={n} {values} errors={sorted(report.errors)}"


def test_sample_covers_the_families_and_the_hahn_line():
    fams = [fam for fam, _ in golden_cases()]
    for cls in (Charlier, Meixner, Kravchuk, Hahn):
        assert sum(isinstance(fam, cls) for fam in fams) >= REPORTS // 8
    assert sum(isinstance(fam, Hahn) and fam.alpha + fam.beta == -1 for fam in fams) >= 10


def test_route_values_are_bit_identical_to_the_pinned_digest():
    digest = hashlib.sha256()
    for line in golden_lines():
        assert "errors=[]" in line
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == DIGEST
