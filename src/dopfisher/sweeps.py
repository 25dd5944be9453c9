"""Parameter sweeps: grids of Fisher evaluations emitted as CSV rows.

A sweep moves one variable (the degree or one family parameter) over a grid
while the rest stay fixed, evaluating the requested routes at every point.
Row order is deterministic: grid-major, method-minor.  Out-of-domain points
produce an ``error`` row and the sweep continues.

Ten stock figure configurations (degree sweeps and parameter sweeps for
representative members of every family) ship as ``figures.cfg``, an INI file
with one section per curve; see the README for the format.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath

from .families import DegreeOutOfRange, Family, ParameterDomainError, make_family
from .fisher import (
    DEFAULT_TRUNCATION,
    FisherReport,
    Method,
    TruncationPolicy,
    fisher_report,
)
from .numerics import DEFAULT_DPS, to_fraction, to_mpf

#: column order of every sweep row
SWEEP_COLUMNS = ("curve", "family", "sweep", "sweep_value", "n", "params",
                 "method", "value", "converged", "error")

#: every family parameter, in CSV ``params`` order
PARAM_NAMES = ("mu", "gamma", "p", "N", "alpha", "beta")
_INTEGER_VARS = ("n", "N")


def format_scalar(value, backend: str, dps: int) -> str:
    """Render a scalar for CSV: lowest-terms `p/q` under the exact backend
    (when the value is rational), round-trippable decimal otherwise."""
    if backend == "exact" and isinstance(value, (int, Fraction)):
        return str(Fraction(value))
    with mpmath.workdps(dps):
        return mpmath.nstr(to_mpf(value), dps)


def route_cells(report: FisherReport, method: Method, backend: str,
                dps: int) -> Tuple[str, str, str]:
    """CSV cells (value, converged, error) of one route of a report; a failed
    route gives an empty value and ``false``, the closed route the Hahn flag."""
    if method not in report.values:
        return "", "false", report.errors.get(method, "unavailable")
    value = format_scalar(report.values[method], backend, dps)
    converged = True
    if method is Method.CLOSED and report.hahn_c3_converged is not None:
        converged = report.hahn_c3_converged
    return value, str(converged).lower(), ""


def format_params(family: Family) -> str:
    """Semicolon-separated fixed parameters, stable ordering."""
    parts = []
    for name in PARAM_NAMES:
        if hasattr(family, name):
            parts.append(f"{name}={getattr(family, name)}")
    return ";".join(parts)


@dataclass
class SweepSpec:
    """One curve: a family, a swept variable and its grid."""

    family: str
    sweep: str                              # 'n' or a parameter name
    fixed: Dict[str, object]
    grid: Tuple[object, ...]                # exact Fraction/int values
    methods: Tuple[Method, ...] = (Method.EXPANSION,)
    backend: str = "exact"
    dps: int = DEFAULT_DPS
    trunc: TruncationPolicy = DEFAULT_TRUNCATION
    label: str = ""

    def __post_init__(self):
        if self.sweep != "n" and self.sweep not in PARAM_NAMES:
            raise ValueError(f"unknown sweep variable {self.sweep!r}")


def linear_grid(start, stop, count: int, integer: bool = False) -> Tuple:
    """Exact linearly spaced grid; integer grids must land on integers."""
    if count < 1:
        raise ValueError("grid needs at least one point")
    start, stop = to_fraction(start), to_fraction(stop)
    if count == 1:
        values = [start]
    else:
        step = (stop - start) / (count - 1)
        values = [start + step * k for k in range(count)]
    if integer:
        bad = [v for v in values if v.denominator != 1]
        if bad:
            raise ValueError(f"integer grid contains non-integers, e.g. {bad[0]}")
        return tuple(int(v) for v in values)
    return tuple(values)


def run_sweep(spec: SweepSpec) -> List[Dict[str, str]]:
    """Evaluate the sweep; one row dict per grid point and method."""
    rows: List[Dict[str, str]] = []
    for value in spec.grid:
        base = {
            "curve": spec.label,
            "family": spec.family,
            "sweep": spec.sweep,
            "sweep_value": str(Fraction(value)) if spec.backend == "exact"
                            else format_scalar(to_fraction(value), "float", 17),
            "n": "", "params": "", "method": "", "value": "",
            "converged": "", "error": "",
        }
        params = dict(spec.fixed)
        if spec.sweep == "n":
            degree = int(value)
        else:
            params[spec.sweep] = value
            if "n" not in params:
                raise ValueError("parameter sweeps need a fixed degree 'n'")
            degree = int(params.pop("n"))
        try:
            if "N" in params:
                params["N"] = int(params["N"])
            fam = make_family(spec.family, **params)
            fam.check_degree(degree)
        except (ParameterDomainError, DegreeOutOfRange, ValueError) as exc:
            row = dict(base)
            row["n"] = str(degree)
            row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
            continue
        report = fisher_report(fam, degree, spec.trunc, dps=spec.dps,
                               methods=spec.methods)
        for method in spec.methods:
            row = dict(base)
            row["n"] = str(degree)
            row["params"] = format_params(fam)
            row["method"] = method.value
            row["value"], row["converged"], row["error"] = route_cells(
                report, method, spec.backend, spec.dps)
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure configurations
# ---------------------------------------------------------------------------


class FigureConfigError(ValueError):
    """A figure config file that cannot be read, or a curve it cannot define."""


def _default_figures_text() -> str:
    return resources.files(__package__).joinpath("figures.cfg").read_text()


def _first_line(exc: Exception) -> str:
    return str(exc).splitlines()[0] if str(exc) else type(exc).__name__


def load_figures(path: Optional[str] = None,
                 methods: Optional[Sequence[Method]] = None,
                 backend: str = "exact",
                 dps: int = DEFAULT_DPS,
                 trunc: TruncationPolicy = DEFAULT_TRUNCATION,
                 ) -> Dict[str, List[SweepSpec]]:
    """Parse the figure config into per-figure sweep lists (file order kept).

    Each section ``[figN.label]`` defines one curve with keys ``family``,
    ``sweep``, fixed parameters, and either ``grid = start:stop:count`` or an
    explicit ``values`` list.  A file that cannot be read or parsed, and a
    section that does not define a curve, raise FigureConfigError.
    """
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep 'n' and 'N' distinct
    try:
        if path is None:
            parser.read_string(_default_figures_text())
        else:
            with open(path) as handle:
                parser.read_string(handle.read())
    except (OSError, UnicodeError, configparser.Error) as exc:
        raise FigureConfigError(
            f"cannot read figure config {path!r}: {_first_line(exc)}") from exc
    figures: Dict[str, List[SweepSpec]] = {}
    for section in parser.sections():
        fig_id, _, label = section.partition(".")
        try:
            spec = _curve_spec(dict(parser[section]), methods, backend, dps, trunc,
                               label=label or fig_id)
        except (ValueError, ZeroDivisionError, configparser.Error) as exc:
            raise FigureConfigError(
                f"figure section [{section}]: {_first_line(exc)}") from exc
        figures.setdefault(fig_id, []).append(spec)
    return figures


def _curve_spec(options: Dict[str, str], methods, backend, dps, trunc,
                label: str) -> SweepSpec:
    """One figure-config section as a sweep; ValueError names what is wrong."""
    missing = [repr(key) for key in ("family", "sweep") if key not in options]
    if "grid" not in options and "values" not in options:
        missing.append("'grid' or 'values'")
    if missing:
        raise ValueError(f"missing {'; '.join(missing)}")
    family = options.pop("family")
    sweep = options.pop("sweep")
    integer = sweep in _INTEGER_VARS
    if "values" in options:
        raw = options.pop("values").replace(",", " ").split()
        grid = tuple(int(v) if integer else Fraction(v) for v in raw)
    else:
        start, stop, count = options.pop("grid").split(":")
        grid = linear_grid(Fraction(start), Fraction(stop), int(count),
                           integer=integer)
    curve_methods = tuple(Method(m.strip()) for m in
                          options.pop("methods", "expansion").split(","))
    fixed: Dict[str, object] = {}
    for key, raw_value in options.items():
        if key in ("n", "N"):
            fixed[key] = int(raw_value)
        elif key in PARAM_NAMES:
            fixed[key] = Fraction(raw_value)
        else:
            raise ValueError(f"unknown key {key!r}")
    if sweep != "n" and "n" not in fixed:
        raise ValueError("parameter sweeps need a fixed degree 'n'")
    return SweepSpec(family=family, sweep=sweep, fixed=fixed, grid=grid,
                     methods=methods and tuple(methods) or curve_methods,
                     backend=backend, dps=dps, trunc=trunc, label=label)


def run_figure(fig_id: str, path: Optional[str] = None, **kwargs) -> List[Dict[str, str]]:
    """Run every curve of one figure, concatenating rows in file order."""
    figures = load_figures(path, **kwargs)
    if fig_id not in figures:
        raise KeyError(f"unknown figure {fig_id!r}; available: {sorted(figures)}")
    rows: List[Dict[str, str]] = []
    for spec in figures[fig_id]:
        rows.extend(run_sweep(spec))
    return rows
