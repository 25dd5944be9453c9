"""Outside-in tracer for one benchmark pass.

The tracer wraps dopfisher's functions from outside the package: module
functions are re-bound in every ``dopfisher`` namespace that holds them
(``cli`` and ``sweeps`` import ``fisher_report`` by name, several modules
import ``pochhammer``), and family methods are wrapped on the class that
defines them.  No file of the package is edited.

Each wrapped call adds to its name's call count, total time and self time
(total minus the time of wrapped calls made directly inside it).  Hot leaves
(``pochhammer``, ``weight_ratio``) only count and time, without a frame of
their own.  Spans, with start, end and parent, are kept only at the
``cli.main``, ``fisher_report`` and route boundaries, in memory until the
pass ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

ROUTES = ("direct", "difference", "expansion", "closed")
FAMILIES = ("charlier", "meixner", "kravchuk", "hahn")

#: the engine whose direct weight_ratio calls are its lattice points
ENGINE = "fisher.truncated_weighted_square_sum"


class Tracer:
    """Counts, self times and spans of wrapped calls (one thread)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}            # name -> [calls, total_s, self_s]
        self.tally = Counter()     # "parent>leaf" -> leaf calls made directly in parent
        self.counts = Counter()    # extra counters, e.g. converged accelerations
        self.spans = []            # [name, start, end, parent index or -1]
        self._frames = []          # [name, child_s] of the open wrapped calls
        self._open_spans = []

    def _close(self, name, elapsed, child):
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed - child

    def wrap(self, name, fn, *, span=False, label=None, on_result=None):
        """A wrapper that opens a frame; ``label(args)`` renames it per call."""
        clock, frames, spans, open_spans = self.clock, self._frames, self.spans, self._open_spans

        def traced(*args, **kwargs):
            key = label(args) if label else name
            frame = [key, 0.0]
            frames.append(frame)
            if span:
                open_spans.append(len(spans))
                spans.append([key, 0.0, 0.0, open_spans[-2] if len(open_spans) > 1 else -1])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                self._close(key, end - start, frame[1])
                if frames:
                    frames[-1][1] += end - start
                if span:
                    record = spans[open_spans.pop()]
                    record[1], record[2] = start, end
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_leaf(self, name, fn):
        """A cheaper wrapper for hot leaves: counts and times, no frame."""
        clock, frames, tally = self.clock, self._frames, self.tally

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._close(name, elapsed, 0.0)
                if frames:
                    frames[-1][1] += elapsed
                    tally[f"{frames[-1][0]}>{name}"] += 1

        return traced

    def snapshot(self) -> dict:
        return {"stats": self.stats, "tally": dict(self.tally),
                "counts": dict(self.counts), "spans": self.spans}


def _rebind(original, wrapper):
    """Point every dopfisher namespace that holds ``original`` at ``wrapper``."""
    for modname, module in list(sys.modules.items()):
        if modname == "dopfisher" or modname.startswith("dopfisher."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the package's layer boundaries in a freshly imported interpreter."""
    from dopfisher import cli, families, fisher, numerics, sweeps

    def route_label(route):
        return lambda args: f"fisher.{route}.{args[0].tag}"

    def count_converged(result):
        tracer.counts["numerics.accelerated_pfq_at_minus_one.converged"] += bool(result[1])

    spanned = {"cli.main": cli.main, "fisher.fisher_report": fisher.fisher_report}
    for name, fn in spanned.items():
        _rebind(fn, tracer.wrap(name, fn, span=True))
    for route in ROUTES:
        fn = getattr(fisher, f"fisher_{route}")
        _rebind(fn, tracer.wrap(route, fn, span=True, label=route_label(route)))
    for module, prefix, names in (
            (sweeps, "sweeps", ("load_figures", "run_sweep", "format_scalar")),
            (families, "families", ("make_family",)),
            (fisher, "fisher", ("truncated_weighted_square_sum",)),
            (numerics, "numerics", ("terminating_pfq",))):
        for attr in names:
            fn = getattr(module, attr)
            _rebind(fn, tracer.wrap(f"{prefix}.{attr}", fn))
    accel = numerics.accelerated_pfq_at_minus_one
    _rebind(accel, tracer.wrap("numerics.accelerated_pfq_at_minus_one", accel,
                               on_result=count_converged))
    _rebind(numerics.pochhammer, tracer.wrap_leaf("numerics.pochhammer", numerics.pochhammer))

    classes = (families.Family, families.Charlier, families.Meixner,
               families.Kravchuk, families.Hahn)
    for cls in classes:
        for attr in ("eval_poly", "poly_coeffs", "connection_coeffs",
                     "reduced_norm", "reduced_weight"):
            if attr in vars(cls):
                setattr(cls, attr, tracer.wrap(f"families.{attr}", vars(cls)[attr]))
        if "weight_ratio" in vars(cls):
            setattr(cls, "weight_ratio",
                    tracer.wrap_leaf("families.weight_ratio", vars(cls)["weight_ratio"]))
    for attr in ("exact_ratio", "to_float"):
        fn = vars(families.NormValue)[attr]
        setattr(families.NormValue, attr, tracer.wrap(f"families.NormValue.{attr}", fn))


# ---------------------------------------------------------------------------
# Per-layer metrics from the snapshots of the traced passes of one run
# ---------------------------------------------------------------------------

_CALLS_AND_SELF = (
    "numerics.pochhammer", "numerics.terminating_pfq",
    "numerics.accelerated_pfq_at_minus_one",
    "families.reduced_norm", "families.NormValue.exact_ratio",
    "families.connection_coeffs", "families.eval_poly", "families.reduced_weight",
    "families.poly_coeffs", "families.weight_ratio", "families.NormValue.to_float",
    ENGINE, "sweeps.format_scalar", "families.make_family",
)
_SELF_ONLY = ("fisher.fisher_report", "cli.main", "sweeps.load_figures", "sweeps.run_sweep")


def layer_metric_specs():
    """[(name, unit, better)] of every per-layer metric, in report order."""
    specs = []
    for name in _CALLS_AND_SELF:
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
        if name == "numerics.accelerated_pfq_at_minus_one":
            specs.append((f"{name}.converged_ratio", "1", "higher"))
        if name == ENGINE:
            specs += [(f"{name}.points", "count", "lower"),
                      (f"{name}.points_per_s", "1/s", "higher")]
    for route in ROUTES:
        for family in FAMILIES:
            specs += [(f"fisher.{route}.{family}.calls", "count", "lower"),
                      (f"fisher.{route}.{family}.total_s", "s", "lower")]
    specs += [(f"{name}.self_s", "s", "lower") for name in _SELF_ONLY]
    specs.append(("trace.overhead_ratio", "1", "lower"))
    return specs


def merge(snapshots) -> dict:
    """Sum the snapshots of several passes into one."""
    stats, tally, counts = {}, Counter(), Counter()
    for snap in snapshots:
        for name, (calls, total, self_s) in snap["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        tally.update(snap["tally"])
        counts.update(snap["counts"])
    return {"stats": stats, "tally": tally, "counts": counts}


def layer_metrics(merged: dict, traced_s: float, untraced_s: float) -> dict:
    """{metric name: value} for every spec of ``layer_metric_specs``."""
    stats, tally, counts = merged["stats"], merged["tally"], merged["counts"]

    def stat(name):
        return stats.get(name, [0, 0.0, 0.0])

    points = tally.get(f"{ENGINE}>families.weight_ratio", 0)
    accel = "numerics.accelerated_pfq_at_minus_one"
    derived = {
        f"{accel}.converged_ratio":
            counts.get(f"{accel}.converged", 0) / stat(accel)[0] if stat(accel)[0] else 0.0,
        f"{ENGINE}.points": points,
        f"{ENGINE}.points_per_s": points / stat(ENGINE)[1] if stat(ENGINE)[1] else 0.0,
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    out = {}
    for name, _unit, _better in layer_metric_specs():
        base, _, field = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif field == "calls":
            out[name] = stat(base)[0]
        elif field == "total_s":
            out[name] = stat(base)[1]
        else:
            out[name] = stat(base)[2]
    return out
