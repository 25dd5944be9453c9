"""Summarise benchmark results and compare two sets of them.

    python3 bench/run.py --workload figures --seed 1 --seconds 30 --out a1.json
    python3 bench/compare.py a1.json a2.json ...                 # one set
    python3 bench/compare.py b*.json --against a*.json           # head vs base

For each workload and metric, prints the median over the files, the spread
(distance between the first and third quartile as a share of the median,
from ``statistics.quantiles(values, n=4)``) and, with ``--against``, the
change of the median and whether it worsens by more than the metric's bound
in BENCHMARK.json.  Refuses (exit 2) to mix results whose Python version or
mpmath backend differ; exits 1 when a metric regresses beyond its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    """{(workload, trace): {metric: [values]}} plus the records."""
    groups, records = defaultdict(lambda: defaultdict(list)), []
    for path in paths:
        data = json.loads(Path(path).read_text())
        records.append(data["record"])
        key = (data["record"]["workload"], data["record"]["trace"])
        for name, metric in data["result"]["metrics"].items():
            groups[key][name].append(metric["value"])
    return groups, records


def summary(values):
    """(median, spread); the spread is 0 for fewer than two values."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+", help="result files written by run.py --out")
    parser.add_argument("--against", nargs="+", default=[], help="base result files")
    args = parser.parse_args(argv)

    head, head_records = load(args.results)
    base, base_records = load(args.against)
    environments = {(r["python"], r["mpmath_backend"]) for r in head_records + base_records}
    if len(environments) > 1:
        print(f"compare: results come from different Python versions or mpmath "
              f"backends {sorted(environments)}; refusing to compare", file=sys.stderr)
        return 2

    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    regressed = False
    for key in sorted(head):
        print(f"== {key[0]}{' (traced)' if key[1] else ''}")
        for name, values in head[key].items():
            median, spread = summary(values)
            line = f"{name:58s} median {median:<12.6g} spread {spread:7.2%}  n={len(values)}"
            if key in base and name in base[key] and name in bounds:
                base_median, _ = summary(base[key][name])
                bound, better = bounds[name]
                change = (median - base_median) / abs(base_median)
                worse = change if better == "lower" else -change
                verdict = "REGRESSION" if worse > bound else "ok"
                regressed |= worse > bound
                line += f"  vs {base_median:.6g}: {change:+.2%} (bound {bound:.0%}) {verdict}"
            print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
