"""dopfisher benchmark: one workload, end-to-end or traced.

    python3 bench/run.py --workload figures --seed 1 --seconds 40 --trace 0

Runs the workload as a series of passes, each in a fresh interpreter that
imports ``dopfisher`` from ``src/`` and sends every operation through
``dopfisher.cli.main``.  Every emitted value is checked in this process,
outside the timed region.  Prints one line per metric (name, value, unit),
one JSON line with the run record, and last the JSON result.  Every failed
value (nonzero exit code, route error, stderr line or check mismatch) is
listed with its inputs on stderr, and the run exits 1 when any value fails.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds (and
at least MIN_CALLS calls; a run that cannot reach MIN_CALLS by HARD_STOP_S
exits 2 without a result).  Every pass runs REPEATS times, each time in its
own interpreter and a few passes apart, and a call's latency is its fastest
execution: the host's speed drifts for seconds at a time, and the fastest of
a few executions falls in a quiet moment far more often than one does.
The drift that lasts whole runs is divided out: every pass times a fixed
probe before each call (``passrun.probe``), and the timings are scaled to a
host on which the probe takes PROBE_REF_S (see ``Tally.end_to_end``).  The
unscaled figures are printed too.

``--trace 1`` runs TRACE_PASSES passes twice, untraced and traced, and
reports the per-layer metrics of the traced ones; a fixed pass count keeps
the counts identical for a given seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from tracer import layer_metric_specs, layer_metrics, merge  # noqa: E402
from workloads import WORKLOADS, check_call, pass_calls  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PASSRUN = Path(__file__).resolve().with_name("passrun.py")

#: p90 needs at least ten samples beyond it
MIN_CALLS = 100
#: executions of each pass (same calls, same order) in an end-to-end run
REPEATS = 2
#: time of ``passrun.probe`` on the host the benchmark was written on (2
#: shared vCPUs, Python 3.11.7); the timings are scaled to this host speed
PROBE_REF_S = 0.003
#: a call timed at its fastest of this many executions or more ran in one of
#: the host's quiet moments
MANY_EXECUTIONS = 10
TRACE_PASSES = 4
#: no pass starts after this many seconds; a run short of MIN_CALLS then aborts
HARD_STOP_S = 100
PASS_TIMEOUT_S = 60

END_TO_END = (("setup_s", "s"), ("values_per_s", "1/s"), ("call_p50_ms", "ms"),
              ("call_p90_ms", "ms"), ("peak_rss_mb", "MB"))


class RunAborted(RuntimeError):
    """A pass process died, or the run could not gather MIN_CALLS calls."""


def run_pass(calls: list, trace: bool) -> dict:
    """Run one pass in a fresh interpreter; adds ``setup_s`` to its result."""
    env = {k: v for k, v in os.environ.items() if k != "DOPFISHER_DPS"}
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(PASSRUN), str(SRC)], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps({"calls": [c["argv"] for c in calls],
                                                "trace": trace}),
                                    timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunAborted(f"pass exceeded {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RunAborted(f"pass exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out)
    result["setup_s"] = result["ready"] - spawned
    return result


class Tally:
    """Checked values, failures and per-pass timings of one run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []        # (argv, route, reason)
        self.notes = []
        # setup_s, timed_s, rss_kb, probe_s, calls: (argv, seconds, passed)
        self.passes = []

    def add(self, calls: list, result: dict) -> None:
        executions = []
        for call, res in zip(calls, result["results"], strict=True):
            checked = check_call(self.workload, call, res["rc"], res["out"], res["err"])
            self.attempted += checked.attempted
            self.failed += checked.failed
            self.notes += checked.notes
            argv = " ".join(call["argv"])
            for route, reason in checked.failures:
                self.failures.append((argv, route, reason))
            executions.append((argv, res["seconds"], checked.attempted - checked.failed))
        self.passes.append({"setup_s": result["setup_s"], "timed_s": result["timed_s"],
                            "rss_kb": result["maxrss_kb"], "calls": executions,
                            "probe_s": result["probe_s"]})

    @property
    def correct(self) -> bool:
        """No value failed."""
        return self.failed == 0

    @property
    def executions(self) -> int:
        return sum(len(p["calls"]) for p in self.passes)

    def fastest(self) -> dict:
        """{argv: (seconds, values passed)} at each distinct call's fastest execution."""
        fastest = {}
        for p in self.passes:
            for argv, seconds, passed in p["calls"]:
                if argv not in fastest or seconds < fastest[argv][0]:
                    fastest[argv] = (seconds, passed)
        return fastest

    def slowdown(self, quiet: bool = False) -> float:
        """How much slower than PROBE_REF_S the host ran the probe in this run:
        at its median, or with ``quiet`` at its 10th percentile."""
        probes = [x for p in self.passes for x in p["probe_s"]]
        level = statistics.quantiles(probes, n=10)[0] if quiet else statistics.median(probes)
        return level / PROBE_REF_S

    def end_to_end(self, scaled: bool = True) -> dict:
        """The end-to-end metrics; ``scaled`` divides the host's slowdown out.

        Each timing is scaled by the probe statistic that matches it.  The
        median of the passes' set-up times, and a call's faster of two
        executions, follow the host's typical speed: the probe median.  The
        fastest of MANY_EXECUTIONS or more follows its quiet speed: the
        probe's 10th percentile (``figures`` runs each call some 25 times).
        """
        fastest = self.fastest()
        quiet = self.executions >= MANY_EXECUTIONS * len(fastest)
        setup_slowdown = self.slowdown() if scaled else 1.0
        slowdown = self.slowdown(quiet) if scaled else 1.0
        # every timing uses each distinct call's fastest execution; the
        # percentiles count each execution once, at its call's fastest time
        latencies = [fastest[argv][0] / slowdown
                     for p in self.passes for argv, _, _ in p["calls"]]
        return {
            "setup_s": statistics.median(p["setup_s"] for p in self.passes) / setup_slowdown,
            "values_per_s": (sum(passed for _, passed in fastest.values())
                             / sum(seconds for seconds, _ in fastest.values()) * slowdown),
            "call_p50_ms": statistics.median(latencies) * 1000,
            "call_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000,
            "peak_rss_mb": statistics.median(p["rss_kb"] for p in self.passes) / 1024,
        }


def measure(workload: str, seed: int, seconds: float, min_calls: int = MIN_CALLS,
            repeats: int = REPEATS) -> Tally:
    """End-to-end run: passes until ``seconds`` and ``min_calls`` are both met.

    Round k runs the pass sets k, k-1, ..., k-repeats+1, so every set runs
    ``repeats`` times, a few passes apart.  Once time and calls suffice, no
    new set starts and the started ones finish their repeats.
    """
    run_pass([], trace=False)  # warm-up: byte-code caches and file cache
    tally = Tally(workload)
    drain_passes = repeats * (repeats - 1) // 2
    start = time.monotonic()
    last = None  # the last pass set, once no new one starts
    k = 0
    while last is None or k - repeats < last:
        if last is None:
            elapsed = time.monotonic() - start
            pass_s = elapsed / len(tally.passes) if tally.passes else 0.0
            # stop where the run ends nearest to ``seconds``: drain now, or
            # after one more round of ``repeats`` passes
            if k and elapsed + (drain_passes + repeats / 2) * pass_s >= seconds \
                    and tally.executions >= min_calls:
                last = k - 1
                continue
            if elapsed >= HARD_STOP_S:
                raise RunAborted(f"only {tally.executions} calls in {elapsed:.0f} s; "
                                 f"call_p90_ms needs at least {min_calls}")
        for index in range(k, k - repeats, -1):
            if 0 <= index and (last is None or index <= last):
                calls = pass_calls(workload, seed, index)
                tally.add(calls, run_pass(calls, trace=False))
        k += 1
    return tally


def measure_traced(workload: str, seed: int, passes: int = TRACE_PASSES):
    """Traced run: each pass untraced, then traced.

    Returns (tally, metrics, spans, coverage), where coverage is the share of
    the traced pass time that the ``cli.main`` spans cover.
    """
    run_pass([], trace=False)
    tally = Tally(workload)
    snapshots, untraced_s, traced_s, cli_span_s = [], 0.0, 0.0, 0.0
    for index in range(passes):
        calls = pass_calls(workload, seed, index)
        plain = run_pass(calls, trace=False)
        traced = run_pass(calls, trace=True)
        tally.add(calls, plain)
        tally.add(calls, traced)
        untraced_s += plain["timed_s"]
        traced_s += traced["timed_s"]
        snapshot = traced["trace"]
        snapshots.append(snapshot)
        cli_span_s += sum(end - start for name, start, end, parent in snapshot["spans"]
                          if name == "cli.main")
    metrics = layer_metrics(merge(snapshots), traced_s, untraced_s)
    return tally, metrics, [s["spans"] for s in snapshots], cli_span_s / traced_s


def run_record(workload: str, seed: int, seconds: float, trace: bool, tally: Tally) -> dict:
    import mpmath.libmp
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "commit": commit, "python": platform.python_version(),
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
            "passes": len(tally.passes), "calls": tally.executions,
            "distinct_calls": len(tally.fastest()),
            "host_slowdown": tally.slowdown() if tally.passes else None,
            "host_slowdown_p10": tally.slowdown(quiet=True) if tally.passes else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write record, result and failures here")
    args = parser.parse_args(argv)
    if not (SRC / "dopfisher" / "__init__.py").is_file():
        print(f"bench: no dopfisher package under {SRC}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            tally, metrics, spans, coverage = measure_traced(args.workload, args.seed)
            units = {name: unit for name, unit, _ in layer_metric_specs()}
        else:
            tally, spans, coverage = measure(args.workload, args.seed, args.seconds), None, None
            metrics = tally.end_to_end()
            units = dict(END_TO_END)
    except RunAborted as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    for argv_text, route, reason in tally.failures:
        print(f"FAILED [{route}] dopfisher {argv_text}: {reason}", file=sys.stderr)
    if tally.notes:
        print(f"note: {len(tally.notes)} Hahn closed forms unconverged (recorded, "
              f"not failures), e.g. {tally.notes[0]}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"host_slowdown {tally.slowdown():.6g} 1 (probe median over "
              f"{PROBE_REF_S * 1000:g} ms; p10: {tally.slowdown(quiet=True):.6g})")
        unscaled = tally.end_to_end(scaled=False)
        for name in ("setup_s", "values_per_s", "call_p50_ms", "call_p90_ms"):
            print(f"unscaled_{name} {unscaled[name]:.6g} {units[name]}")
    print(f"error_ratio {tally.failed / tally.attempted:.6g} 1")
    print(f"calls {tally.executions} count (the percentiles' sample; "
          f"{len(tally.fastest())} distinct)")
    if coverage is not None:
        print(f"cli_main_coverage {coverage:.6g} 1 (share of traced pass time in cli.main)")

    correct = tally.correct
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record = run_record(args.workload, args.seed, args.seconds, bool(args.trace), tally)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"record": record, "result": result,
             "failures": tally.failures, "notes": tally.notes, "cli_main_coverage": coverage,
             "passes": tally.passes, "spans": spans}))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
