"""Parameter sweeps: grids of Fisher evaluations emitted as CSV rows.

A sweep moves one variable (the degree or one family parameter) over a grid
while the rest stay fixed, evaluating the requested routes at every point.
Row order is deterministic: grid-major, method-minor.  Rows are yielded as
they are built, so a sweep holds one grid point at a time.  ``SweepSpec``
refuses a wrong family or parameter name, a swept variable also given a
fixed value, and a non-integer degree or N; a point out of the parameter or
degree domain produces an ``error`` row and the sweep continues.  A linear
grid is of ints when its start and step are integers, else of Fractions.
The command line and the figure config read a methods list with
``parse_methods``.

Ten stock figure configurations (degree sweeps and parameter sweeps for
representative members of every family) ship as ``figures.cfg``, an INI file
with one section per curve; see the README for the format.  configparser
loads only when a figure file is read.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .families import (_REQUIRED, _TAGS, DegreeOutOfRange, Family, ParameterDomainError,
                       _family_class)
from .fisher import FisherReport, Method, fisher_report
from .numerics import DEFAULT_DPS, to_fraction, to_mpf

#: column order of every sweep row
SWEEP_COLUMNS = ("curve", "family", "sweep", "sweep_value", "n", "params",
                 "method", "value", "converged", "error")

#: every family parameter, in CSV ``params`` order
PARAM_NAMES = ("mu", "gamma", "p", "N", "alpha", "beta")

#: each family's parameters, in ``PARAM_NAMES`` order
_PARAM_CELLS = {tag: tuple(name for name in PARAM_NAMES if name in names)
                for tag, names in _REQUIRED.items()}


def format_scalar(value, backend: str, dps: int) -> str:
    """Render a scalar for CSV: a rational (int or Fraction) as lowest-terms
    `p/q` of any size under the exact backend and as its ``dps``-digit decimal
    (``_decimal_text``) under the float backend; an mpf, which only the
    infinite-lattice density produces, by ``mpmath.nstr`` at ``dps`` digits."""
    if isinstance(value, (int, Fraction)):
        if backend != "exact":
            return _decimal_text(value, dps)
        num, den = value.as_integer_ratio()
        text = "-" * (num < 0) + _digit_string(abs(num))   # str of each side
        return text if den == 1 else f"{text}/{_digit_string(den)}"
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
    digits = _digit_string(q)   # dps digits, as low <= q < high
    if min(-(dps // 3), -5) < e < dps:
        text, suffix = (digits[:e + 1] + "." + digits[e + 1:] if e >= 0
                        else "0." + "0" * (-e - 1) + digits), ""
    else:
        text, suffix = digits[0] + "." + digits[1:], f"e{e:+d}"
    text = text.rstrip("0")
    if text.endswith("."):
        text += "0"
    return ("-" if value < 0 else "") + text + suffix


def _digit_string(q: int, width: int = 0) -> str:
    # str(q), q >= 0; where str() refuses, past sys.get_int_max_str_digits() (4300
    # by default), zero-padded halves of a width bounded from q's bits instead
    if not width:
        try:
            return str(q)
        except ValueError:
            return _digit_string(q, int(q.bit_length() * _LOG10_2) + 2).lstrip("0")
    if width <= sys.get_int_max_str_digits():
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


#: every route by its name, in ``Method`` order
_ROUTES = {method.value: method for method in Method}


def parse_methods(text: str) -> Tuple[Method, ...]:
    """The routes of a comma-separated list, in order; ValueError names the
    first unknown one."""
    names = [piece.strip() for piece in text.split(",")]
    for name in names:
        if name not in _ROUTES:
            raise ValueError(f"unknown method {name!r}; choose from {', '.join(_ROUTES)}")
    return tuple(map(_ROUTES.get, names))


def format_params(family: Family) -> str:
    """Semicolon-separated fixed parameters, in ``PARAM_NAMES`` order."""
    return ";".join([f"{name}={getattr(family, name)}" for name in _PARAM_CELLS[family.tag]])


class _SweepFields(NamedTuple):
    # SweepSpec's fields; a NamedTuple cannot define the __new__ that checks them
    family: str
    sweep: str                              # 'n' or a parameter name
    fixed: Dict[str, object]
    grid: Tuple[object, ...]                # exact Fraction/int values
    methods: Tuple[Method, ...] = (Method.EXPANSION,)
    backend: str = "exact"
    dps: int = DEFAULT_DPS
    label: str = ""


class SweepSpec(_SweepFields):
    """One curve: a family, a swept variable and its grid, checked once for
    the whole sweep (names: the fixed ones but ``n``, and the swept one,
    which must not also be fixed)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.sweep in self.fixed:
            raise ValueError(f"the swept variable {self.sweep!r} cannot also be fixed")
        if self.sweep != "n" and "n" not in self.fixed:
            raise ValueError("parameter sweeps need a fixed degree 'n'")
        if self.sweep != "n" and self.sweep not in PARAM_NAMES:
            raise ValueError(f"unknown sweep variable {self.sweep!r}")
        # a degree or N that int() would truncate; plain ints skip the parse
        swept = self.grid if self.sweep in ("n", "N") else ()
        for value in (self.fixed.get("n", 0), self.fixed.get("N", 0), *swept):
            if not isinstance(value, int) and to_fraction(value).denominator != 1:
                raise ValueError(f"the degree and N must be integers, not {value}")
        _family_class(self.family, [k for k in (*self.fixed, self.sweep) if k != "n"])
        return self


def linear_grid(start, stop, count: int) -> Tuple:
    """Exact linearly spaced grid: ints when the start and the step are
    integers (one point: the start alone), else one Fraction per point."""
    if count < 1:
        raise ValueError("grid needs at least one point")
    (a, b), (c, d) = to_fraction(start).as_integer_ratio(), to_fraction(stop).as_integer_ratio()
    m = max(count - 1, 1)
    step, rest = divmod(c * b - a * d, b * d * m)   # (stop - start)/m = step + rest/(b d m)
    if b == 1 and (count == 1 or not rest):
        return tuple([a + step * k for k in range(count)])
    # start + (stop - start) k/m as one Fraction per point
    return tuple([Fraction(a * d * (m - k) + c * b * k, b * d * m) for k in range(count)])


def run_sweep(spec: SweepSpec) -> Iterator[Dict[str, str]]:
    """Evaluate the sweep lazily: one row dict per grid point and method,
    each grid point evaluated when its first row is read."""
    cls = _TAGS[spec.family.lower()]   # the tag and the names SweepSpec checked
    names = _REQUIRED[cls.tag]
    # the constructor's arguments, N as an int; the swept one is set per point
    params = [int(spec.fixed.get(k, 0)) if k == "N" else spec.fixed.get(k) for k in names]
    slot = names.index(spec.sweep) if spec.sweep != "n" else None
    degree = int(spec.fixed.get("n", 0))   # a degree sweep sets it per point
    for value in spec.grid:
        if slot is None:
            degree = int(value)
        else:
            params[slot] = int(value) if spec.sweep == "N" else value
        base = {
            "curve": spec.label,
            "family": spec.family,
            "sweep": spec.sweep,
            "sweep_value": str(value) if spec.backend == "exact"
                            else format_scalar(to_fraction(value), "float", 17),
            "n": str(degree), "params": "", "method": "", "value": "",
            "converged": "", "error": "",
        }
        try:
            fam = cls(*params)
            report = fisher_report(fam, degree, methods=spec.methods)
        except (ParameterDomainError, DegreeOutOfRange) as exc:
            base["error"] = f"{type(exc).__name__}: {exc}"
            yield base
            continue
        base["params"] = format_params(fam)
        for method in spec.methods:
            row = dict(base)
            row["method"] = method.value
            row["value"], row["converged"], row["error"] = route_cells(
                report, method, spec.backend, spec.dps)
            yield row


# ---------------------------------------------------------------------------
# Figure configurations
# ---------------------------------------------------------------------------


class FigureConfigError(ValueError):
    """A figure config file that cannot be read, or a curve it cannot define."""


def _first_line(exc: Exception) -> str:
    return str(exc).splitlines()[0] if str(exc) else type(exc).__name__


def load_figures(path: Optional[str] = None) -> Dict[str, List[SweepSpec]]:
    """Parse the figure config into per-figure sweep lists (file order kept).

    Each section ``[figN.label]`` defines one curve with keys ``family``,
    ``sweep``, fixed parameters, and either ``grid = start:stop:count`` or an
    explicit ``values`` list.  A file that cannot be read or parsed, and a
    section that does not define a curve, raise FigureConfigError.  The
    stock ``figures.cfg`` (``path=None``) is read once per process, a file
    at ``path`` on every call, and the curves are built on every call.
    """
    config = _stock_config() if path is None else _read_config(path)
    return {fig_id: _figure(config, fig_id) for fig_id in config[1]}


@lru_cache(maxsize=None)
def _stock_config():
    return _read_config(None)


def _read_config(path: Optional[str]):
    """(parser, {figure id: [section, ...]})."""
    import configparser
    from importlib import resources
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep 'n' and 'N' distinct
    try:
        if path is None:
            parser.read_string(resources.files(__package__).joinpath("figures.cfg")
                               .read_text())
        else:
            with open(path) as handle:
                parser.read_string(handle.read())
    except (OSError, UnicodeError, configparser.Error) as exc:
        raise FigureConfigError(
            f"cannot read figure config {path!r}: {_first_line(exc)}") from exc
    figures: Dict[str, List[str]] = {}
    for section in parser.sections():
        figures.setdefault(section.partition(".")[0], []).append(section)
    return parser, figures


def _figure(config, fig_id, **run) -> List[SweepSpec]:
    import configparser
    parser, figures = config
    specs = []
    for section in figures[fig_id]:
        try:
            specs.append(_curve_spec(dict(parser[section]),
                                     section.partition(".")[2] or fig_id, **run))
        except (ValueError, ZeroDivisionError, configparser.Error) as exc:
            raise FigureConfigError(f"figure section [{section}]: {_first_line(exc)}") from exc
    return specs


def _curve_spec(options: Dict[str, str], label: str, methods=None, **run) -> SweepSpec:
    """One figure-config section as a sweep, with the ``methods`` given, else
    its own; ``run`` sets the backend and dps.  ValueError names a fault."""
    missing = [repr(key) for key in ("family", "sweep") if key not in options]
    if "grid" not in options and "values" not in options:
        missing.append("'grid' or 'values'")
    if missing:
        raise ValueError(f"missing {'; '.join(missing)}")
    family = options.pop("family")
    sweep = options.pop("sweep")
    if "values" in options:
        grid = tuple(map(_kind(sweep), options.pop("values").replace(",", " ").split()))
    else:
        start, stop, count = options.pop("grid").split(":")
        grid = linear_grid(Fraction(start), Fraction(stop), int(count))
    own = parse_methods(options.pop("methods", "expansion"))
    fixed = {}
    for key, raw in options.items():
        if key != "n" and key not in PARAM_NAMES:
            raise ValueError(f"unknown key {key!r}")
        fixed[key] = _kind(key)(raw)
    return SweepSpec(family=family, sweep=sweep, fixed=fixed, grid=grid,
                     methods=tuple(methods) if methods else own, label=label, **run)


def _kind(key: str) -> type:
    """The type of a config value of ``key``: int for the degree and N, else Fraction."""
    return int if key in ("n", "N") else Fraction


def run_figure(fig_id: str, path: Optional[str] = None, **kwargs) -> Iterator[Dict[str, str]]:
    """Run every curve of one figure (only its curves are built), rows in
    file order and evaluated as they are read (``run_sweep``).  An unknown
    figure or a config that cannot be loaded raises here, before any row."""
    config = _stock_config() if path is None else _read_config(path)
    if fig_id not in config[1]:
        raise KeyError(f"unknown figure {fig_id!r}; available: {sorted(config[1])}")
    return chain.from_iterable(map(run_sweep, _figure(config, fig_id, **kwargs)))
