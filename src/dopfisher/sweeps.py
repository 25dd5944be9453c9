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
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Dict, List, Optional, Sequence, Tuple

from .families import DegreeOutOfRange, Family, ParameterDomainError, make_family
from .fisher import FisherReport, Method, fisher_report
from .numerics import DEFAULT_DPS, to_fraction, to_mpf

#: column order of every sweep row
SWEEP_COLUMNS = ("curve", "family", "sweep", "sweep_value", "n", "params",
                 "method", "value", "converged", "error")

#: every family parameter, in CSV ``params`` order
PARAM_NAMES = ("mu", "gamma", "p", "N", "alpha", "beta")
_INTEGER_VARS = ("n", "N")


def format_scalar(value, backend: str, dps: int) -> str:
    """Render a scalar for CSV: a rational (int or Fraction) as lowest-terms
    `p/q` under the exact backend and as its ``dps``-digit decimal
    (``_decimal_text``) under the float backend; an mpf, which only the
    infinite-lattice density produces, by ``mpmath.nstr`` at ``dps`` digits."""
    if isinstance(value, (int, Fraction)):
        return str(Fraction(value)) if backend == "exact" else _decimal_text(value, dps)
    import mpmath
    with mpmath.workdps(dps):
        return mpmath.nstr(to_mpf(value), dps)


#: log10(2), to estimate a decimal exponent from bit lengths
_LOG10_2 = math.log10(2)


def _decimal_text(value, dps: int) -> str:
    """The exact rational ``value`` rounded once to ``dps`` significant
    digits, ties away from zero, in ``mpmath.nstr``'s layout: fixed notation
    when the leading digit's exponent e has min(-(dps//3), -5) < e < dps,
    else ``d.ddd`` with ``e+N``/``e-N``; trailing zeros stripped down to
    ``.0``; zero is ``0.0``.  Integer arithmetic only: with x = |value|,
    the digits are x 10^(dps-1-e) rounded, e found from bit lengths."""
    value = Fraction(value)
    a, b = abs(value.numerator), value.denominator
    if not a:
        return "0.0"
    e = math.floor((a.bit_length() - b.bit_length()) * _LOG10_2)   # off by one at most
    low, high = 10 ** (dps - 1), 10 ** dps
    while True:
        shift = dps - 1 - e
        num, den = (a * 10 ** shift, b) if shift >= 0 else (a, b * 10 ** -shift)
        q, r = divmod(num, den)
        if q < low:
            e -= 1
        elif q >= high:
            e += 1
        else:
            break
    if 2 * r >= den:
        q += 1
        if q == high:   # a carry into a new leading digit, 9.99...95 -> 10
            q, e = low, e + 1
    digits = _digit_string(q, dps)
    if min(-(dps // 3), -5) < e < dps:
        text, suffix = (digits[:e + 1] + "." + digits[e + 1:] if e >= 0
                        else "0." + "0" * (-e - 1) + digits), ""
    else:
        text, suffix = digits[0] + "." + digits[1:], f"e{e:+d}"
    text = text.rstrip("0")
    if text.endswith("."):
        text += "0"
    return ("-" if value < 0 else "") + text + suffix


def _digit_string(q: int, width: int) -> str:
    # str() refuses ints past sys.get_int_max_str_digits() (4300 by default),
    # so a long digit string is built from halves
    if width <= 4000:
        return f"{q:0{width}d}"
    high, low = divmod(q, 10 ** (width // 2))
    return _digit_string(high, width - width // 2) + _digit_string(low, width // 2)


def route_cells(report: FisherReport, method: Method, backend: str,
                dps: int) -> Tuple[str, str, str]:
    """CSV cells (value, converged, error) of one route of a report; a failed
    route gives an empty value and ``false``."""
    if method not in report.values:
        return "", "false", report.errors.get(method, "unavailable")
    return format_scalar(report.values[method], backend, dps), "true", ""


def format_params(family: Family) -> str:
    """Semicolon-separated fixed parameters, stable ordering."""
    parts = []
    for name in PARAM_NAMES:
        if hasattr(family, name):
            parts.append(f"{name}={getattr(family, name)}")
    return ";".join(parts)


@dataclass(frozen=True)
class SweepSpec:
    """One curve: a family, a swept variable and its grid.  Specs of the
    stock figures share ``fixed`` and ``grid``: read them, never mutate them."""

    family: str
    sweep: str                              # 'n' or a parameter name
    fixed: Dict[str, object]
    grid: Tuple[object, ...]                # exact Fraction/int values
    methods: Tuple[Method, ...] = (Method.EXPANSION,)
    backend: str = "exact"
    dps: int = DEFAULT_DPS
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
    else:   # start + (stop - start) k/m as one Fraction per point
        (a, b), (c, d), m = start.as_integer_ratio(), stop.as_integer_ratio(), count - 1
        values = [Fraction(a * d * (m - k) + c * b * k, b * d * m) for k in range(count)]
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
        report = fisher_report(fam, degree, methods=spec.methods)
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
                 ) -> Dict[str, List[SweepSpec]]:
    """Parse the figure config into per-figure sweep lists (file order kept).

    Each section ``[figN.label]`` defines one curve with keys ``family``,
    ``sweep``, fixed parameters, and either ``grid = start:stop:count`` or an
    explicit ``values`` list.  A file that cannot be read or parsed, and a
    section that does not define a curve, raise FigureConfigError.  The
    stock ``figures.cfg`` (``path=None``) is parsed once per process; a file
    at ``path`` is read on every call.  ``methods`` replaces every curve's
    own methods.
    """
    figures = _stock_figures() if path is None else _parse_figures(path)
    return {fig_id: [replace(spec, methods=tuple(methods) if methods else spec.methods,
                             backend=backend, dps=dps) for spec in specs]
            for fig_id, specs in figures.items()}


@lru_cache(maxsize=None)
def _stock_figures() -> Dict[str, List[SweepSpec]]:
    # shared by every caller, so load_figures hands out replaced copies
    return _parse_figures(None)


def _parse_figures(path: Optional[str]) -> Dict[str, List[SweepSpec]]:
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
            spec = _curve_spec(dict(parser[section]), label=label or fig_id)
        except (ValueError, ZeroDivisionError, configparser.Error) as exc:
            raise FigureConfigError(
                f"figure section [{section}]: {_first_line(exc)}") from exc
        figures.setdefault(fig_id, []).append(spec)
    return figures


def _curve_spec(options: Dict[str, str], label: str) -> SweepSpec:
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
                     methods=curve_methods, label=label)


def run_figure(fig_id: str, path: Optional[str] = None, **kwargs) -> List[Dict[str, str]]:
    """Run every curve of one figure, concatenating rows in file order."""
    figures = load_figures(path, **kwargs)
    if fig_id not in figures:
        raise KeyError(f"unknown figure {fig_id!r}; available: {sorted(figures)}")
    rows: List[Dict[str, str]] = []
    for spec in figures[fig_id]:
        rows.extend(run_sweep(spec))
    return rows
