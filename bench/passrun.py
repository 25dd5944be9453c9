"""One benchmark pass, run in a fresh interpreter.

    python3 bench/passrun.py SRC_DIR < spec.json > result.json

Imports ``dopfisher`` from SRC_DIR first, so that the parent can time the
interpreter start plus the import, then reads ``{"calls": [argv, ...],
"trace": bool}`` from stdin, runs every argv through ``dopfisher.cli.main``
with stdout and stderr captured, and writes one JSON object to stdout.

Before every call it times ``probe``, a fixed piece of pure-Python work that
does not use the program, so that the parent can tell how fast the host ran
while the calls ran.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import dopfisher.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402


def probe() -> Fraction:
    """Exact rational sums over growing big integers, a few ms of work."""
    total = Fraction(0)
    for k in range(1, 600):
        total += Fraction(k, k * k + 1)
    return total


def main() -> None:
    spec = json.load(sys.stdin)
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).parent))
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    results, probe_s = [], []
    start = time.perf_counter()
    for argv in spec["calls"]:
        t0 = time.perf_counter()
        probe()
        probe_s.append(time.perf_counter() - t0)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = dopfisher.cli.main(argv)
            except Exception:  # an uncaught error is a failed call, not a lost pass
                traceback.print_exc()
                rc = -1
        seconds = time.perf_counter() - t0
        results.append({"rc": rc, "out": out.getvalue(), "err": err.getvalue(),
                        "seconds": seconds})
    timed_s = time.perf_counter() - start - sum(probe_s)  # the program's time only
    json.dump({"ready": READY, "timed_s": timed_s, "results": results, "probe_s": probe_s,
               "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               "trace": tracer.snapshot() if tracer else None}, sys.stdout)


if __name__ == "__main__":
    main()
