"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/selftest.py

They show that corrupted values, crashed calls and unexpected route errors
are reported as failed and make the run exit 1, that the tracer's self-time
arithmetic and lattice-point count are right, and run one small pass of each
workload, untraced and traced.
"""

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metric_specs  # noqa: E402

from dopfisher import Charlier, Meixner, TruncationCapExceeded, TruncationPolicy  # noqa: E402
from dopfisher import cli, fisher_direct  # noqa: E402


def cli_call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


# ---- correctness gates ------------------------------------------------------


def test_flipped_digit_in_a_figure_fails_the_figure():
    call = {"argv": ["sweep", "--figure", "fig2"], "figure": "fig2"}
    rc, out, err = cli_call(call["argv"])
    assert workloads.check_call("figures", call, rc, out, err).failed == 0

    row = out.splitlines()[1]
    digit = next(i for i, ch in enumerate(row) if ch.isdigit())
    flipped = row[:digit] + str((int(row[digit]) + 1) % 10) + row[digit + 1:]
    checked = workloads.check_call("figures", call, rc, out.replace(row, flipped, 1), err)
    assert checked.failed == checked.attempted == 57


def test_truncated_value_off_by_1e_20_fails():
    call = workloads._fisher_call("meixner", {"gamma": Fraction(3, 2), "mu": Fraction(1, 2)}, 3)
    rc, out, err = cli_call(call["argv"])
    assert workloads.check_call("truncated", call, rc, out, err).failed == 0

    row = next(line for line in out.splitlines() if ",direct," in line)
    value = row.split(",")[4]
    with mpmath.workdps(90):
        perturbed = mpmath.nstr(mpmath.mpf(value) * (1 + mpmath.mpf(10) ** -20), 80)
    checked = workloads.check_call("truncated", call, rc,
                                   out.replace(row, row.replace(value, perturbed)), err)
    assert checked.failed == 1
    assert checked.failures[0][0] == "direct"


def test_known_hahn_defect_fails_the_run():
    # Hahn with alpha + beta = -1 is left out of the exact-deep grid (a workload
    # must not fail); this shows the defect is still there and still caught
    call = workloads._fisher_call(
        "hahn", {"alpha": Fraction(-1, 2), "beta": Fraction(-1, 2), "N": 12}, 4)
    rc, out, err = cli_call(call["argv"])
    checked = workloads.check_call("exact-deep", call, rc, out, err)
    assert checked.attempted == 4 and checked.failed == 2
    assert sorted(route for route, _ in checked.failures) == ["closed", "expansion"]
    assert all(reason.startswith("ZeroDivisionError") for _, reason in checked.failures)
    tally = run.Tally("exact-deep")
    tally.add([call], {"setup_s": 0.1, "timed_s": 1.0, "maxrss_kb": 1, "probe_s": [0.003],
                       "results": [{"rc": rc, "out": out, "err": err, "seconds": 1.0}]})
    assert tally.failed == 2 and not tally.correct


def fake_pass(result_of):
    """A stand-in for run.run_pass that answers each call with ``result_of(call)``."""
    def run_pass(calls, trace):
        return {"setup_s": 0.1, "timed_s": 0.01 * len(calls), "maxrss_kb": 20000,
                "probe_s": [0.003] * len(calls),
                "results": [{"seconds": 0.01, **result_of(call)} for call in calls],
                "trace": None}
    return run_pass


def fisher_rows(call, skip=()):
    """CSV that `fisher` would print if every route gave 1 (they all agree)."""
    lines = ["family,n,params,method,value,converged,discrepancy"]
    for m in call["methods"]:
        value = "" if m in skip else "1"
        lines.append(f"{call['family']},{call['n']},p,{m},{value},true,0.0")
    return "\n".join(lines) + "\n"


def run_main(monkeypatch, capsys, workload, result_of):
    monkeypatch.setattr(run, "run_pass", fake_pass(result_of))
    rc = run.main(["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"])
    out = capsys.readouterr().out
    return rc, json.loads(out.splitlines()[-1])


def test_crashed_calls_make_the_run_fail(monkeypatch, capsys):
    rc, result = run_main(monkeypatch, capsys, "figures",
                          lambda call: {"rc": -1, "out": "", "err": "Traceback ...\n"})
    assert rc == 1 and result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_unexpected_route_error_makes_the_run_fail(monkeypatch, capsys):
    def result_of(call):
        return {"rc": 0, "out": fisher_rows(call, skip=("closed",)),
                "err": "closed: OverflowError: int too large to convert to float\n"}
    rc, result = run_main(monkeypatch, capsys, "exact-deep", result_of)
    assert rc == 1 and result["correct"] is False and result["failed"] > 0


def test_agreeing_values_pass(monkeypatch, capsys):
    rc, result = run_main(monkeypatch, capsys, "exact-deep",
                          lambda call: {"rc": 0, "out": fisher_rows(call), "err": ""})
    assert rc == 0 and result["correct"] is True and result["failed"] == 0


def test_too_few_calls_abort_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "HARD_STOP_S", 0)
    monkeypatch.setattr(run, "run_pass", fake_pass(
        lambda call: {"rc": 0, "out": fisher_rows(call), "err": ""}))
    rc = run.main(["--workload", "exact-deep", "--seed", "1", "--seconds", "0", "--trace", "0"])
    assert rc == 2 and '"correct"' not in capsys.readouterr().out


def test_every_pass_runs_repeats_times_and_latency_is_the_fastest(monkeypatch):
    seen = set()

    def result_of(call):  # the first execution of a call is slower than the second
        key = tuple(call["argv"])
        seconds = 0.02 if key in seen else 0.05
        seen.add(key)
        return {"rc": 0, "out": fisher_rows(call), "err": "", "seconds": seconds}
    monkeypatch.setattr(run, "run_pass", fake_pass(result_of))
    tally = run.measure("exact-deep", seed=1, seconds=0, min_calls=100, repeats=2)
    runs = {}
    for p in tally.passes:
        key = tuple(argv for argv, _, _ in p["calls"])
        runs[key] = runs.get(key, 0) + 1
    assert set(runs.values()) == {2} and tally.executions >= 100
    assert all(seconds == 0.02 for seconds, _ in tally.fastest().values())


def test_timings_are_scaled_by_the_probe(monkeypatch):
    def tally_on_host(slowdown):  # every time, the probe's too, is `slowdown` times longer
        tally = run.Tally("exact-deep")
        for index in range(2):
            calls = workloads.pass_calls("exact-deep", 1, index)
            tally.add(calls, {"setup_s": 0.1 * slowdown, "timed_s": 1.0, "maxrss_kb": 1024,
                              "probe_s": [run.PROBE_REF_S * slowdown] * len(calls),
                              "results": [{"rc": 0, "out": fisher_rows(c), "err": "",
                                           "seconds": 0.2 * slowdown} for c in calls]})
        return tally
    quiet = tally_on_host(1).end_to_end()
    slow = tally_on_host(2)
    assert slow.slowdown() == 2
    assert slow.end_to_end() == quiet
    assert slow.end_to_end(scaled=False)["call_p50_ms"] == 2 * quiet["call_p50_ms"] == 400


def test_calls_run_many_times_are_scaled_by_the_quiet_probe():
    tally = run.Tally("figures")
    calls = workloads.pass_calls("figures", 1, 0)
    for _ in range(run.MANY_EXECUTIONS):
        tally.add(calls, {"setup_s": 0.1, "timed_s": 1.0, "maxrss_kb": 1024,
                          "probe_s": [run.PROBE_REF_S * (1 + i / 10) for i in range(len(calls))],
                          "results": [{"rc": 1, "out": "", "err": "", "seconds": 0.2}
                                      for _ in calls]})
    assert tally.slowdown(quiet=True) < tally.slowdown()
    metrics = tally.end_to_end()
    assert metrics["call_p50_ms"] == pytest.approx(200 / tally.slowdown(quiet=True))
    assert metrics["setup_s"] == pytest.approx(0.1 / tally.slowdown())


def test_generator_is_seeded_and_skips_only_the_known_defect():
    assert workloads.pass_calls("exact-deep", 7, 3) == workloads.pass_calls("exact-deep", 7, 3)
    assert workloads.pass_calls("truncated", 7, 0) != workloads.pass_calls("truncated", 8, 0)
    grid = workloads.HAHN_GRID
    defective = sum(a + b == -1 for a in grid for b in grid)
    assert defective == 5 and len(workloads.HAHN_PAIRS) == len(grid) ** 2 - defective
    hahn = [c for i in range(200) for c in workloads.pass_calls("exact-deep", 7, i)
            if c["family"] == "hahn"]
    assert all(Fraction(c["params"]["alpha"]) + Fraction(c["params"]["beta"]) != -1
               for c in hahn)
    figures = [c["figure"] for c in workloads.pass_calls("figures", 5, 0)]
    assert sorted(figures) == sorted(workloads.load_figure_hashes())


# ---- tracer -----------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_nested_self_time():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 1

    def inner():
        clock.now += 2
        traced_leaf()

    def outer():
        clock.now += 3
        traced_inner()
        traced_inner()
        traced_leaf()

    traced_leaf = tracer.wrap_leaf("leaf", leaf)
    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", outer, span=True)
    traced_outer()

    assert tracer.stats["outer"] == [1, 10.0, 3.0]
    assert tracer.stats["inner"] == [2, 6.0, 4.0]
    assert tracer.stats["leaf"] == [3, 3.0, 3.0]
    assert tracer.tally == {"inner>leaf": 2, "outer>leaf": 1}
    assert tracer.spans == [["outer", 0.0, 10.0, -1]]


def smallest_hard_cap(fam, n):
    lo, hi = 1, 1
    while True:
        try:
            fisher_direct(fam, n, TruncationPolicy(hard_cap=hi))
            break
        except TruncationCapExceeded:
            lo, hi = hi + 1, hi * 2
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            fisher_direct(fam, n, TruncationPolicy(hard_cap=mid))
            hi = mid
        except TruncationCapExceeded:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("family, params, n, fam", [
    ("charlier", {"mu": Fraction(7, 2)}, 6, Charlier(Fraction(7, 2))),
    ("meixner", {"gamma": Fraction(3, 2), "mu": Fraction(1, 2)}, 5,
     Meixner(Fraction(3, 2), Fraction(1, 2))),
])
def test_points_match_the_hard_cap_count(family, params, n, fam):
    call = workloads._fisher_call(family, params, n, methods=("direct",))
    snapshot = run.run_pass([call], trace=True)["trace"]
    points = snapshot["tally"]["fisher.truncated_weighted_square_sum>families.weight_ratio"]
    assert points > 0
    assert smallest_hard_cap(fam, n) == points + 1


# ---- whole workloads --------------------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(layer_metric_specs())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass(workload):
    tally = run.measure(workload, seed=1, seconds=0, min_calls=0)
    assert len(tally.passes) == run.REPEATS and tally.attempted > 0 and tally.correct
    metrics = tally.end_to_end()
    assert set(metrics) == {name for name, _ in run.END_TO_END}
    assert all(value > 0 for value in metrics.values())

    tally, layers, spans, coverage = run.measure_traced(workload, seed=1, passes=1)
    assert tally.correct
    assert set(layers) == {name for name, _, _ in layer_metric_specs()}
    assert coverage >= 0.95
    assert any(name == "fisher.fisher_report" for name, *_ in spans[0])


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.*"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "figures",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_refuses_mixed_backends(tmp_path):
    files = []
    for backend in ("python", "gmpy"):
        path = tmp_path / f"{backend}.json"
        record = {"workload": "figures", "trace": False, "python": "3.11.7",
                  "mpmath_backend": backend}
        result = {"metrics": {"setup_s": {"value": 0.1, "unit": "s"}}}
        path.write_text(json.dumps({"record": record, "result": result}))
        files.append(str(path))
    proc = subprocess.run([sys.executable, str(BENCH / "compare.py"), files[0],
                           "--against", files[1]], capture_output=True, text=True)
    assert proc.returncode == 2
