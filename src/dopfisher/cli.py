"""Command-line front end.

Subcommands:

* ``fisher``  -- evaluate the Fisher information of one polynomial by every
                 requested route, one CSV row per route on stdout;
* ``eval``    -- monic polynomial values;
* ``density`` -- probability-mass values of the associated density;
* ``sweep``   -- parameter/degree sweeps to CSV, including the stock figure
                 configurations shipped in ``figures.cfg``;
* ``verify``  -- run the invariant suites and report per-suite pass/fail.

Exit codes: 0 success, 1 verification failure, 2 parameter-domain error,
64 usage error.  Output is UTF-8 CSV with a header row.  Exact values are
rounded once when printed: ``--backend exact`` prints rationals as ``p/q``
in lowest terms, ``--backend float`` decimals rounded once to ``--dps``
significant digits, ties away from zero (default 80, overridable through the
``DOPFISHER_DPS`` environment variable, read on every call).  ``verify``
prints counts only and takes neither flag.

A call builds the invoked command's parser alone (``_COMMANDS``); the full
tree (``build_parser``) prints top-level help and the errors of a missing or
unknown command or stray arguments.  Only ``verify`` loads its suites.
"""

from __future__ import annotations

import argparse
import csv
import gc
import os
import shutil
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional

from .families import (
    DegreeOutOfRange,
    OutOfSupport,
    ParameterDomainError,
    make_family,
)
from .fisher import Method, fisher_report, rakhmanov_densities
from .numerics import DEFAULT_DPS, to_fraction
from .sweeps import (
    PARAM_NAMES,
    SWEEP_COLUMNS,
    FigureConfigError,
    SweepSpec,
    format_params,
    format_scalar,
    linear_grid,
    load_figures,
    route_cells,
    run_figure,
    run_sweep,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64

FISHER_COLUMNS = ("family", "n", "params", "method", "value", "converged",
                  "discrepancy")


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code moved off 2 (which is the
    parameter-domain code here) to the sysexits-style 64, and with the help
    width read once: argparse's default formatter reads the terminal size
    again for every ``add_argument`` (it builds a formatter to check each
    one), so each parser reads it once, when it is built."""

    def __init__(self, *args, **kwargs):
        # argparse's own width, set before its __init__, which adds -h
        self.width = shutil.get_terminal_size().columns - 2
        super().__init__(*args, **kwargs)

    def _get_formatter(self):
        return self.formatter_class(prog=self.prog, width=self.width)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _usage_error(message, self.prog)


def _usage_error(message: str, prog: str = "dopfisher") -> SystemExit:
    """Print ``prog: error: message`` and return the exit to raise (code 64)."""
    print(f"{prog}: error: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _default_dps() -> int:
    raw = os.environ.get("DOPFISHER_DPS", "")
    try:
        value = int(raw)
        return value if value >= 50 else DEFAULT_DPS
    except ValueError:
        return DEFAULT_DPS


def _add_family_flags(parser, required=True):
    parser.add_argument("--family", required=required,
                        choices=["charlier", "meixner", "kravchuk", "hahn"])
    parser.add_argument("--mu", type=Fraction, help="Charlier/Meixner parameter")
    parser.add_argument("--gamma", type=Fraction, help="Meixner parameter")
    parser.add_argument("--p", type=Fraction, help="Kravchuk parameter")
    parser.add_argument("--N", type=int, help="Kravchuk/Hahn lattice size")
    parser.add_argument("--alpha", type=Fraction, help="Hahn parameter")
    parser.add_argument("--beta", type=Fraction, help="Hahn parameter")


def _dps_arg(raw: str) -> int:
    value = int(raw)
    if value < 50:
        raise argparse.ArgumentTypeError("the float backend is contracted to "
                                         "at least 50 decimal digits")
    return value


def _add_numeric_flags(parser, default_backend):
    parser.add_argument("--backend", choices=["exact", "float"],
                        default=default_backend)
    parser.add_argument("--dps", type=_dps_arg, default=None,
                        help="decimal digits of the float backend (>= 50; "
                             "default 80, env DOPFISHER_DPS)")


def _family_from_args(args):
    params = {k: getattr(args, k) for k in PARAM_NAMES}
    try:
        return make_family(args.family, **params)
    except ValueError as exc:
        if isinstance(exc, ParameterDomainError):
            raise
        raise _usage_error(str(exc))


def _parse_methods(raw: str) -> List[Method]:
    out = []
    for piece in raw.split(","):
        piece = piece.strip()
        try:
            out.append(Method(piece))
        except ValueError:
            raise _usage_error(
                f"unknown method {piece!r}; choose from "
                f"{', '.join(m.value for m in Method)}")
    return out


def _writer(stream):
    return csv.writer(stream, lineterminator="\n")


@contextmanager
def _output(path):
    """stdout for ``None`` or ``-``, else the file at ``path``, closed after use."""
    if path in (None, "-"):
        yield sys.stdout
        return
    with open(path, "w", newline="") as stream:
        yield stream


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _fisher_flags(parser):
    _add_family_flags(parser)
    parser.add_argument("--n", type=int, required=True, help="polynomial degree")
    parser.add_argument("--methods", default="direct,difference,expansion,closed")
    _add_numeric_flags(parser, default_backend="float")


def cmd_fisher(args) -> int:
    fam = _family_from_args(args)
    methods = _parse_methods(args.methods)
    report = fisher_report(fam, args.n, methods=methods)
    disc = ""
    if report.max_pairwise_rel_discrepancy is not None:
        disc = format_scalar(report.max_pairwise_rel_discrepancy, "float", 8)
    out = _writer(sys.stdout)
    out.writerow(FISHER_COLUMNS)
    for method in methods:
        value, converged, error = route_cells(report, method, args.backend, args.dps)
        if error:
            print(f"{method.value}: {error}", file=sys.stderr)
        out.writerow([fam.tag, args.n, format_params(fam), method.value,
                      value, converged, disc])
    return EXIT_OK


def _eval_flags(parser):
    _add_family_flags(parser)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--x", type=Fraction)
    parser.add_argument("--x-start", type=int)
    parser.add_argument("--x-stop", type=int)
    _add_numeric_flags(parser, default_backend="exact")


def cmd_eval(args) -> int:
    fam = _family_from_args(args)
    if args.x is not None:
        points = [to_fraction(args.x)]
    elif args.x_start is not None and args.x_stop is not None:
        points = [Fraction(x) for x in range(args.x_start, args.x_stop + 1)]
    else:
        raise _usage_error("eval needs --x or --x-start/--x-stop")
    out = _writer(sys.stdout)
    out.writerow(["family", "n", "params", "x", "value"])
    for x, value in zip(points, fam.eval_points(args.n, points)):
        out.writerow([fam.tag, args.n, format_params(fam), str(x),
                      format_scalar(value, args.backend, args.dps)])
    return EXIT_OK


def _density_flags(parser):
    _add_family_flags(parser)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--x", type=int)
    parser.add_argument("--x-start", type=int)
    parser.add_argument("--x-stop", type=int)
    parser.add_argument("--all", action="store_true",
                        help="every point of a bounded support")
    _add_numeric_flags(parser, default_backend="exact")


def cmd_density(args) -> int:
    fam = _family_from_args(args)
    sup = fam.support()
    if args.all:
        if sup.b is None:
            raise _usage_error(
                "--all needs a bounded support; give --x or --x-start/--x-stop")
        points = list(sup.points())
    elif args.x is not None:
        points = [args.x]
    elif args.x_start is not None and args.x_stop is not None:
        points = list(range(args.x_start, args.x_stop + 1))
    else:
        raise _usage_error("density needs --x, --x-start/--x-stop, or --all")
    out = _writer(sys.stdout)
    out.writerow(["family", "n", "params", "x", "density"])
    for x, value in zip(points, rakhmanov_densities(fam, args.n, points, dps=args.dps)):
        out.writerow([fam.tag, args.n, format_params(fam), x,
                      format_scalar(value, args.backend, args.dps)])
    return EXIT_OK


#: flags that only a manual sweep reads
_MANUAL_SWEEP_FLAGS = ("family",) + PARAM_NAMES + ("n", "sweep", "start", "stop",
                                                   "count", "label")


def _sweep_flags(parser):
    _add_family_flags(parser, required=False)
    parser.add_argument("--n", type=int, help="degree (fixed, for parameter sweeps)")
    parser.add_argument("--sweep", choices=("n",) + PARAM_NAMES)
    parser.add_argument("--start", type=Fraction)
    parser.add_argument("--stop", type=Fraction)
    parser.add_argument("--count", type=int)
    parser.add_argument("--label", help="curve name of a manual sweep (default: sweep)")
    parser.add_argument("--figure", help="run a stock figure configuration")
    parser.add_argument("--figures-file", help="alternative figure config path")
    parser.add_argument("--list-figures", action="store_true")
    parser.add_argument("--methods",
                        help="default: a figure curve's own methods, else expansion")
    parser.add_argument("--out", default="-", help="output CSV path (default stdout)")
    _add_numeric_flags(parser, default_backend="exact")


def cmd_sweep(args) -> int:
    # without --methods, figure curves keep their own methods key
    methods = None if args.methods is None else _parse_methods(args.methods)
    if args.figure or args.list_figures:
        mode = "--figure" if args.figure else "--list-figures"
        if args.figure and args.list_figures:
            raise _usage_error("--figure and --list-figures clash")
        given = [f"--{k}" for k in _MANUAL_SWEEP_FLAGS if getattr(args, k) is not None]
        if given:
            raise _usage_error(
                f"{mode} does not take the manual-sweep flags {', '.join(given)}")
        try:
            if args.list_figures:
                listing = [f"{fig_id}: {', '.join(s.label for s in specs)}\n"
                           for fig_id, specs in load_figures(args.figures_file).items()]
                with _output(args.out) as stream:
                    stream.writelines(listing)
                return EXIT_OK
            rows = run_figure(args.figure, path=args.figures_file, methods=methods,
                              backend=args.backend, dps=args.dps)
        except KeyError as exc:
            raise _usage_error(str(exc.args[0]))
        except FigureConfigError as exc:
            raise _usage_error(str(exc))
    else:
        needed = [args.sweep, args.start, args.stop, args.count]
        if any(v is None for v in needed):
            raise _usage_error(
                "manual sweeps need --sweep, --start, --stop, --count "
                "(or use --figure)")
        fixed = {k: getattr(args, k) for k in PARAM_NAMES
                 if getattr(args, k) is not None}
        if args.sweep != "n":
            if args.n is None:
                raise _usage_error("parameter sweeps need a fixed --n")
            fixed["n"] = args.n
        fixed.pop(args.sweep, None)
        methods = methods or [Method.EXPANSION]
        try:
            grid = linear_grid(args.start, args.stop, args.count,
                               integer=args.sweep in ("n", "N"))
            spec = SweepSpec(family=args.family, sweep=args.sweep, fixed=fixed,
                             grid=grid, methods=tuple(methods),
                             backend=args.backend, dps=args.dps,
                             label="sweep" if args.label is None else args.label)
        except ValueError as exc:
            raise _usage_error(str(exc))
        rows = run_sweep(spec)
    with _output(args.out) as stream:
        out = _writer(stream)
        out.writerow(SWEEP_COLUMNS)
        for row in rows:
            out.writerow([row[c] for c in SWEEP_COLUMNS])
    return EXIT_OK


def _verify_flags(parser):
    parser.add_argument("--suite", action="append",
                        help="suite name (repeatable; default: all)")
    parser.add_argument("--list-suites", action="store_true")


def cmd_verify(args) -> int:
    from .verify import SUITES, run_suites   # the suites load on this command alone
    if args.list_suites:
        for name in SUITES:
            print(name)
        return EXIT_OK
    try:
        results = run_suites(args.suite or None)
    except KeyError as exc:
        raise _usage_error(str(exc.args[0]))
    all_ok = True
    for result in results:
        status = "PASS" if result.ok else "FAIL"
        print(f"suite {result.name}: {status} "
              f"({result.passed} passed, {result.failed} failed)")
        if not result.ok:
            all_ok = False
            print(f"  first failing case: {result.failures[0]}")
    print("VERIFY:", "PASS" if all_ok else "FAIL")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


#: every command: its help line, the function that adds its flags, its body
_COMMANDS = {
    "fisher": ("evaluate one polynomial's Fisher information by every route",
               _fisher_flags, cmd_fisher),
    "eval": ("monic polynomial values", _eval_flags, cmd_eval),
    "density": ("probability-mass values of the degree-n density",
                _density_flags, cmd_density),
    "sweep": ("sweep a parameter or the degree to CSV", _sweep_flags, cmd_sweep),
    "verify": ("run the invariant suites", _verify_flags, cmd_verify),
}


def build_parser() -> _Parser:
    """The full tree: the top-level parser with every command's parser."""
    parser = _Parser(
        prog="dopfisher",
        description="Relative Fisher information of the classical discrete "
                    "orthogonal polynomial families.",
        epilog="Exit codes: 0 success, 1 verification failure, "
               "2 parameter-domain error, 64 usage error.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_flags, _) in _COMMANDS.items():
        add_flags(sub.add_parser(name, help=help_line))
    return parser


@lru_cache(maxsize=None)   # built on first need (help and usage errors only), never at import
def _shared_parser() -> _Parser:
    return build_parser()


@lru_cache(maxsize=None)
def _command_parser(name: str) -> _Parser:
    """One command's parser alone, as the full tree builds it, on the command's first call."""
    parser = _Parser(prog=f"dopfisher {name}")
    _COMMANDS[name][1](parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    name = argv[0] if argv else None
    try:
        if name in _COMMANDS:
            args, stray = _command_parser(name).parse_known_args(argv[1:])
        if name not in _COMMANDS or stray:
            # help, a missing or unknown command, or stray arguments: the full
            # tree prints the help or usage error it always printed, and exits
            _shared_parser().parse_args(argv)
        if getattr(args, "dps", 0) is None:   # per call: the parser is shared
            args.dps = _default_dps()
        return _COMMANDS[name][2](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (ParameterDomainError, DegreeOutOfRange, OutOfSupport) as exc:
        print(f"dopfisher: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def run() -> None:
    sys.exit(main())


# The import leaves a few thousand long-lived objects in the young GC
# generations, and the first generation-1 collection scans them all (about 1 ms):
# paid here, it does not land on whichever call crosses the allocation threshold.
gc.collect(1)

if __name__ == "__main__":
    run()
