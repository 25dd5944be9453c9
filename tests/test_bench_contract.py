"""The names the benchmark harness in ``bench/`` takes from the package.

``bench/tracer.py`` wraps package functions by name when it installs, and
``bench/selftest.py`` imports a few names from ``dopfisher``.  Both run in a
fresh interpreter against ``src/``, so this test does the same: a change
that deletes or renames one of those names fails here, not first in a
benchmark run.  A traced pass of the ``truncated`` workload runs the same
way, so a pass process that dies, or a value the harness would refuse,
shows here too.
"""

import importlib.util
import json
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent("""
    import sys
    sys.path.insert(0, sys.argv[1])
    sys.path.insert(0, sys.argv[2])
    import dopfisher.cli
    from tracer import Tracer, install
    install(Tracer())
    from dopfisher import (Charlier, Meixner, TruncationCapExceeded,
                           TruncationPolicy, cli, fisher_direct)
    print("ok")
""")


def test_tracer_installs_and_selftest_names_import():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def bench_module(name):
    """A module of bench/, imported under the name ``bench_<name>``."""
    key = f"bench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, ROOT / "bench" / f"{name}.py")
        sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[key])
    return sys.modules[key]


def test_traced_truncated_pass_runs_and_checks():
    workloads = bench_module("workloads")
    calls = workloads.pass_calls("truncated", 1, 0)
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "passrun.py"), str(ROOT / "src")],
        input=json.dumps({"calls": [c["argv"] for c in calls], "trace": True}),
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)["results"]
    assert len(results) == len(calls)
    failed = [(call["argv"], checked.failures) for call, result in zip(calls, results)
              for checked in [workloads.check_call("truncated", call, result["rc"],
                                                   result["out"], result["err"])]
              if checked.failed]
    assert failed == []
