"""Seeded inputs and output checks of the three benchmark workloads.

A workload is a series of passes; each pass is a list of calls, and a call
is the argument list of one ``dopfisher.cli.main`` invocation plus what its
check needs to know.  ``pass_calls(workload, seed, index)`` is a pure
function of its arguments, so the same seed gives the same inputs.

Parameters are drawn from the stated grids below.  One set of points is left
out: Hahn with alpha + beta = -1, where ``expansion`` and ``closed`` raise
``ZeroDivisionError`` (the removable 0/0 in ``Hahn.reduced_norm(0)``).  A
benchmark workload must be one on which no operation fails, so that defect
is shown by ``selftest.py`` instead, and it stays open in the program.

A pass has a fixed number of call slots, each tied to one stratum of the
lattice size or degree range.  Across the passes of a run, each slot walks
a seeded low-discrepancy sequence over its parameter ranges, so every run
covers each range evenly and the latency percentiles depend little on the
seed; the seed shifts the sequence and shuffles the call order.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

FIGURES_FILE = Path(__file__).with_name("figures.json")

ROUTES = ("direct", "difference", "expansion", "closed")

#: relative gap the README promises between truncated and exact routes
TRUNCATED_TOL = Fraction(1, 10**25)
#: tolerance of the ``hahn-closed-form`` verify suite for a converged flag
HAHN_CLOSED_TOL = Fraction(1, 10**8)

#: routes whose values are exact rationals, in order of preference as the
#: reference; the Hahn closed form is Euler-accelerated, so never exact
EXACT_ROUTES = {
    "charlier": ("expansion", "closed"),
    "meixner": ("expansion", "closed"),
    "kravchuk": ("expansion", "direct", "difference", "closed"),
    "hahn": ("expansion", "direct", "difference"),
}


@dataclass
class Checked:
    """Outcome of checking one call: values attempted and failed, and why.

    A failure is ``(route, reason)``; route ``*`` stands for the whole call.
    """

    attempted: int
    failed: int = 0
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def _grid(lo: Fraction, hi: Fraction, den: int):
    """Every multiple of 1/den in [lo, hi]."""
    return [Fraction(k, den) for k in range(int(lo * den), int(hi * den) + 1)
            if lo <= Fraction(k, den) <= hi]


#: Kravchuk p: every reduced a/b in (0, 1) with b <= 9
P_GRID = sorted({Fraction(a, b) for b in range(2, 10) for a in range(1, b)})
#: Hahn alpha, beta: multiples of 1/6 in (-1, 5]
HAHN_GRID = _grid(Fraction(-5, 6), Fraction(5), 6)
#: Hahn (alpha, beta) pairs from HAHN_GRID, without the known defect alpha + beta = -1
HAHN_PAIRS = [{"alpha": a, "beta": b} for a in HAHN_GRID for b in HAHN_GRID if a + b != -1]
#: Kravchuk p as a parameter choice
P_CHOICES = [{"p": p} for p in P_GRID]
#: Meixner gamma: multiples of 1/4 in [1/2, 6]
GAMMA_GRID = _grid(Fraction(1, 2), Fraction(6), 4)
#: Meixner mu on the deep (exact) workload: multiples of 1/20 in [1/20, 19/20]
DEEP_MU_GRID = _grid(Fraction(1, 20), Fraction(19, 20), 20)
#: Meixner mu on the truncated workload: multiples of 1/20 in [1/10, 3/4]
TRUNC_MU_GRID = _grid(Fraction(1, 10), Fraction(3, 4), 20)
#: hostile Meixner mu: multiples of 1/100 in [97/100, 99/100]
HOSTILE_MU_GRID = _grid(Fraction(97, 100), Fraction(99, 100), 100)
#: Charlier mu: multiples of 1/4 in [1/2, 30], split in three strata
CHARLIER_MU_STRATA = [_grid(Fraction(1, 2), Fraction(39, 4), 4),
                      _grid(Fraction(10), Fraction(79, 4), 4),
                      _grid(Fraction(20), Fraction(30), 4)]


def _quasi(key: str, index: int, dims: int) -> list:
    """Point ``index`` of a low-discrepancy sequence in [0, 1)^dims.

    The additive recurrence with the powers of the generalised golden ratio
    (the root of x^(dims+1) = x + 1), shifted by an offset drawn from ``key``.
    """
    g = 2.0
    for _ in range(60):
        g = (1 + g) ** (1 / (dims + 1))
    offsets = random.Random(key)
    return [(offsets.random() + (index + 1) * g ** -(j + 1)) % 1.0 for j in range(dims)]


def _pick(grid: list, u: float):
    return grid[int(u * len(grid))]


def _pick_int(lo: int, hi: int, u: float) -> int:
    return lo + int(u * (hi - lo + 1))


def _arg(name: str, value) -> str:
    # --flag=value keeps negative values from being read as flags
    return f"--{name}={value}"


def _fisher_call(family: str, params: dict, n: int, methods=ROUTES) -> dict:
    argv = ["fisher", _arg("family", family)]
    argv += [_arg(k, v) for k, v in params.items()]
    argv += [_arg("n", n), "--backend=exact", _arg("methods", ",".join(methods))]
    return {"argv": argv, "family": family,
            "params": {k: str(v) for k, v in params.items()},
            "n": n, "methods": list(methods)}


def _strata(lo: int, hi: int, count: int):
    """Split the integer range [lo, hi] into ``count`` near-equal pieces."""
    edges = [lo + (hi + 1 - lo) * i // count for i in range(count + 1)]
    return [(edges[i], edges[i + 1] - 1) for i in range(count)]


def _bounded_calls(key: str, index: int, family: str, lo: int, hi: int, choices: list) -> list:
    """One call per quarter of [lo, hi] for the lattice size N, with the
    degree n in [N/4, 3N/4] and the parameters drawn from ``choices``."""
    calls = []
    for slot, (n_lo, n_hi) in enumerate(_strata(lo, hi, 4)):
        u = _quasi(f"{key}:{family}:{slot}", index, 3)
        N = _pick_int(n_lo, n_hi, u[0])
        n = _pick_int(-(-N // 4), 3 * N // 4, u[1])
        calls.append(_fisher_call(family, {**_pick(choices, u[2]), "N": N}, n))
    return calls


# ---------------------------------------------------------------------------
# figures: the ten stock figures, in a seeded order
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def load_figure_hashes() -> dict:
    """{figure id: {"sha256": ..., "rows": ...}} captured from the program."""
    return json.loads(FIGURES_FILE.read_text())


def figures_calls(rng: random.Random) -> list:
    ids = sorted(load_figure_hashes(), key=lambda f: int(f[3:]))
    rng.shuffle(ids)
    return [{"argv": ["sweep", "--figure", fid], "figure": fid} for fid in ids]


def figures_check(call: dict, rc: int, out: str, err: str) -> Checked:
    expected = load_figure_hashes()[call["figure"]]
    rows = expected["rows"]
    if rc != 0:
        return Checked(rows, rows, [("*", f"exit code {rc}")])
    if err:
        return Checked(rows, rows, [("*", f"stderr: {err.strip().splitlines()[0]}")])
    if hashlib.sha256(out.encode()).hexdigest() != expected["sha256"]:
        # the hash cannot say which value is wrong, so the figure fails whole
        return Checked(rows, rows, [("*", "CSV differs from its captured sha256")])
    return Checked(rows)


# ---------------------------------------------------------------------------
# exact-deep: exact routes at high degree
# ---------------------------------------------------------------------------


def exact_deep_calls(key: str, index: int) -> list:
    calls = _bounded_calls(key, index, "kravchuk", 30, 89, P_CHOICES)
    calls += _bounded_calls(key, index, "hahn", 20, 47, HAHN_PAIRS)
    for slot, (lo, hi) in enumerate(_strata(100, 259, 4)):
        u = _quasi(f"{key}:meixner:{slot}", index, 3)
        params = {"gamma": _pick(GAMMA_GRID, u[0]), "mu": _pick(DEEP_MU_GRID, u[1])}
        calls.append(_fisher_call("meixner", params, _pick_int(lo, hi, u[2]),
                                  methods=("expansion", "closed")))
    return calls


# ---------------------------------------------------------------------------
# truncated: the big-float truncated-sum engine on infinite lattices
# ---------------------------------------------------------------------------


def truncated_calls(key: str, index: int) -> list:
    calls = []
    for slot, mus in enumerate(CHARLIER_MU_STRATA):
        u = _quasi(f"{key}:charlier:{slot}", index, 2)
        calls.append(_fisher_call("charlier", {"mu": _pick(mus, u[0])},
                                  _pick_int(5, 19, u[1])))
    for slot, (lo, hi) in enumerate(_strata(3, 16, 4)):
        u = _quasi(f"{key}:meixner:{slot}", index, 3)
        params = {"gamma": _pick(GAMMA_GRID, u[0]), "mu": _pick(TRUNC_MU_GRID, u[1])}
        calls.append(_fisher_call("meixner", params, _pick_int(lo, hi, u[2])))
    # one hostile call per pass
    u = _quasi(f"{key}:hostile", index, 3)
    params = {"gamma": _pick(GAMMA_GRID, u[0]), "mu": _pick(HOSTILE_MU_GRID, u[1])}
    calls.append(_fisher_call("meixner", params, _pick_int(1, 4, u[2])))
    return calls


# ---------------------------------------------------------------------------
# checks of `fisher` output
# ---------------------------------------------------------------------------


def _route_rows(call: dict, rc: int, out: str, err: str):
    """({route: CSV row with a value}, {route: error reason}) of one call."""
    methods = call["methods"]
    if rc != 0:
        return {}, {m: f"exit code {rc}" for m in methods}
    errors = {}
    for line in err.splitlines():
        method, _, reason = line.partition(": ")
        if method not in methods:
            return {}, {m: f"stderr: {line}" for m in methods}
        errors[method] = reason
    rows = {row["method"]: row for row in csv.DictReader(io.StringIO(out))}
    emitted = {}
    for m in methods:
        if m in errors:
            continue
        if m not in rows or not rows[m]["value"]:
            errors[m] = "no value emitted"
        else:
            emitted[m] = rows[m]
    return emitted, errors


def _rel_gap(a: Fraction, b: Fraction) -> Fraction:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else Fraction(0)


def fisher_check(call: dict, rc: int, out: str, err: str, truncated: bool) -> Checked:
    """Check every route value of one `fisher` call.

    The expansion route is the reference; when it failed, the next exact
    route stands in, so one defect does not hide the others' agreement.
    """
    rows, errors = _route_rows(call, rc, out, err)
    failures = list(errors.items())
    notes = []
    values = {}
    for m, row in rows.items():
        try:
            values[m] = Fraction(row["value"])
        except ValueError:
            failures.append((m, f"{row['value']!r} is not a number"))
    family = call["family"]
    ref_route = next((m for m in EXACT_ROUTES[family] if m in values), None)
    if ref_route is not None:
        ref_text, ref = rows[ref_route]["value"], values[ref_route]
        for m, value in values.items():
            if m == ref_route:
                continue
            text = rows[m]["value"]
            if family == "hahn" and m == "closed":
                if rows[m]["converged"] != "true":
                    notes.append(f"hahn closed unconverged: {' '.join(call['argv'])}")
                elif _rel_gap(value, ref) > HAHN_CLOSED_TOL:
                    failures.append((m, f"{text} off {ref_route} {ref_text} beyond 1e-8"))
            elif truncated and m in ("direct", "difference"):
                if _rel_gap(value, ref) > TRUNCATED_TOL:
                    failures.append((m, f"{text} off {ref_route} {ref_text} beyond 1e-25"))
            elif text != ref_text:
                failures.append((m, f"{text} != {ref_route} {ref_text}"))
        if family == "charlier":
            law = Fraction(call["n"]) / Fraction(call["params"]["mu"])
            if ref != law:
                failures.append((ref_route, f"{ref_text} != n/mu = {law}"))
    return Checked(len(call["methods"]), len(failures), failures, notes)


# ---------------------------------------------------------------------------


WORKLOADS = ("figures", "exact-deep", "truncated")


def pass_calls(workload: str, seed: int, index: int) -> list:
    """The calls of pass ``index`` of a run with ``seed``, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "figures":
        return figures_calls(rng)
    make = exact_deep_calls if workload == "exact-deep" else truncated_calls
    calls = make(f"{workload}:{seed}", index)
    rng.shuffle(calls)
    return calls


def check_call(workload: str, call: dict, rc: int, out: str, err: str) -> Checked:
    """Check one call's exit code, stdout and stderr."""
    if workload == "figures":
        return figures_check(call, rc, out, err)
    return fisher_check(call, rc, out, err, truncated=workload == "truncated")
