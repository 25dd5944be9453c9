"""The names the benchmark harness in ``bench/`` takes from the package.

``bench/tracer.py`` wraps package functions by name when it installs, and
``bench/selftest.py`` imports a few names from ``dopfisher``.  Both run in a
fresh interpreter against ``src/``, so this test does the same: a change
that deletes or renames one of those names fails here, not first in a
benchmark run.
"""

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
