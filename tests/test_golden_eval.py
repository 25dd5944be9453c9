"""Bit-identity of polynomial values and densities across kernel rewrites.

One sha256 pins the text of a seeded sample of ``eval_points`` and
``rakhmanov_densities`` results, on the family draws of ``test_golden`` (all
four families, N <= 90, about one Hahn draw in five on alpha + beta = -1),
n <= 60:

* the exact ``p/q`` of P_n at integer points inside, below and past each
  support, and at rational points: negative, non-integer and repeated;
* the exact ``p/q`` of the density on a bounded support, at every point;
* the ``nstr`` text of the density on an infinite one at ``dps`` 50, at
  adjacent and at isolated points.

Any change to the evaluation kernel that moves a single bit of a single value
fails here.  When a change is meant to move values, recompute the digest with
``eval_lines`` and say so in the change notes.
"""

import hashlib
import random
from fractions import Fraction

import mpmath

from dopfisher.families import Hahn
from dopfisher.fisher import rakhmanov_densities
from test_golden import _family, _rational

F = Fraction

SEED = 22
FAMILIES = 120
DPS = 50
DIGEST = "a06cb6bdedd692dc675542c25f5058c9f85f7c35612b28c44e4403a6a5a7958a"


def eval_cases(seed=SEED, count=FAMILIES):
    """The seeded sample: (family, degree, evaluation points, density points)."""
    rng = random.Random(seed)
    for _ in range(count):
        fam = _family(rng)
        top = fam.max_degree()
        n = rng.randint(0, 60 if top is None else min(60, top))
        end = fam.support().b
        past = [end, end + 1, end + rng.randint(2, 40)] if end else [rng.randint(61, 500)]
        inside = sorted(rng.sample(range(end), min(4, end))) if end else [0, 1, 2, 7, 30]
        ratios = [_rational(rng, -20, 0), _rational(rng, 0, 100)]
        xs = [*inside, -1, -rng.randint(2, 30), *past, *ratios, ratios[1], F(-1, 2)]
        dens = list(range(end)) if end else [0, 1, 2, 3, 9, 10, 40, 11]
        yield fam, n, xs, dens


def _pq(v) -> str:
    v = F(v)
    return f"{v.numerator}/{v.denominator}"


def eval_lines(seed=SEED, count=FAMILIES):
    """One text line per case: family, degree, the values and the densities."""
    for fam, n, xs, dens in eval_cases(seed, count):
        values = " ".join(f"{x}:{_pq(v)}" for x, v in zip(xs, fam.eval_points(n, xs)))
        rho = rakhmanov_densities(fam, n, dens, dps=DPS)
        if fam.support().b is None:
            density = " ".join(f"{x}:{mpmath.nstr(v, DPS)}" for x, v in zip(dens, rho))
        else:
            density = " ".join(f"{x}:{_pq(v)}" for x, v in zip(dens, rho))
        yield f"{fam!r} n={n} values {values} density {density}"


def test_sample_covers_the_families_the_hahn_line_and_both_lattices():
    cases = list(eval_cases())
    tags = {fam.tag for fam, _, _, _ in cases}
    assert tags == {"charlier", "meixner", "kravchuk", "hahn"}
    assert sum(isinstance(fam, Hahn) and fam.alpha + fam.beta == -1
               for fam, _, _, _ in cases) >= 3
    assert max(n for _, n, _, _ in cases) > 40
    assert any(n == 0 for _, n, _, _ in cases)


def test_values_and_densities_are_bit_identical_to_the_pinned_digest():
    digest = hashlib.sha256()
    for line in eval_lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == DIGEST
