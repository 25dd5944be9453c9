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
"""

from __future__ import annotations

import argparse
import csv
import os
import shutil
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache, partial
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
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64

FISHER_COLUMNS = ("family", "n", "params", "method", "value", "converged",
                  "discrepancy")


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code moved off 2 (which is the
    parameter-domain code here) to the sysexits-style 64, and with the help
    width given once: argparse's default formatter reads the terminal size
    again for every ``add_argument`` (it builds a formatter to check each
    one), so ``build_parser`` reads it once and hands it to every parser."""

    def __init__(self, *args, width: int, **kwargs):
        self.width = width   # before argparse's __init__, which adds -h
        super().__init__(*args, **kwargs)

    def _get_formatter(self):
        return self.formatter_class(prog=self.prog, width=self.width)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.exit_with_usage(message))

    def exit_with_usage(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return EXIT_USAGE


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


def _family_from_args(args, parser):
    params = {k: getattr(args, k) for k in PARAM_NAMES}
    try:
        return make_family(args.family, **params)
    except ValueError as exc:
        if isinstance(exc, ParameterDomainError):
            raise
        raise SystemExit(parser.exit_with_usage(str(exc)))


def _parse_methods(raw: str, parser) -> List[Method]:
    out = []
    for piece in raw.split(","):
        piece = piece.strip()
        try:
            out.append(Method(piece))
        except ValueError:
            raise SystemExit(parser.exit_with_usage(
                f"unknown method {piece!r}; choose from "
                f"{', '.join(m.value for m in Method)}"))
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


def cmd_fisher(args, parser) -> int:
    fam = _family_from_args(args, parser)
    methods = _parse_methods(args.methods, parser)
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


def cmd_eval(args, parser) -> int:
    fam = _family_from_args(args, parser)
    if args.x is not None:
        points = [to_fraction(args.x)]
    elif args.x_start is not None and args.x_stop is not None:
        points = [Fraction(x) for x in range(args.x_start, args.x_stop + 1)]
    else:
        raise SystemExit(parser.exit_with_usage("eval needs --x or --x-start/--x-stop"))
    out = _writer(sys.stdout)
    out.writerow(["family", "n", "params", "x", "value"])
    for x, value in zip(points, fam.eval_points(args.n, points)):
        out.writerow([fam.tag, args.n, format_params(fam), str(x),
                      format_scalar(value, args.backend, args.dps)])
    return EXIT_OK


def cmd_density(args, parser) -> int:
    fam = _family_from_args(args, parser)
    sup = fam.support()
    if args.all:
        if sup.b is None:
            raise SystemExit(parser.exit_with_usage(
                "--all needs a bounded support; give --x or --x-start/--x-stop"))
        points = list(sup.points())
    elif args.x is not None:
        points = [args.x]
    elif args.x_start is not None and args.x_stop is not None:
        points = list(range(args.x_start, args.x_stop + 1))
    else:
        raise SystemExit(parser.exit_with_usage(
            "density needs --x, --x-start/--x-stop, or --all"))
    out = _writer(sys.stdout)
    out.writerow(["family", "n", "params", "x", "density"])
    for x, value in zip(points, rakhmanov_densities(fam, args.n, points, dps=args.dps)):
        out.writerow([fam.tag, args.n, format_params(fam), x,
                      format_scalar(value, args.backend, args.dps)])
    return EXIT_OK


#: flags that only a manual sweep reads
_MANUAL_SWEEP_FLAGS = ("family",) + PARAM_NAMES + ("n", "sweep", "start", "stop",
                                                   "count", "label")


def cmd_sweep(args, parser) -> int:
    # without --methods, figure curves keep their own methods key
    methods = None if args.methods is None else _parse_methods(args.methods, parser)
    if args.figure or args.list_figures:
        mode = "--figure" if args.figure else "--list-figures"
        if args.figure and args.list_figures:
            raise SystemExit(parser.exit_with_usage("--figure and --list-figures clash"))
        given = [f"--{k}" for k in _MANUAL_SWEEP_FLAGS if getattr(args, k) is not None]
        if given:
            raise SystemExit(parser.exit_with_usage(
                f"{mode} does not take the manual-sweep flags {', '.join(given)}"))
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
            raise SystemExit(parser.exit_with_usage(str(exc.args[0])))
        except FigureConfigError as exc:
            raise SystemExit(parser.exit_with_usage(str(exc)))
    else:
        needed = [args.sweep, args.start, args.stop, args.count]
        if any(v is None for v in needed):
            raise SystemExit(parser.exit_with_usage(
                "manual sweeps need --sweep, --start, --stop, --count "
                "(or use --figure)"))
        fixed = {k: getattr(args, k) for k in PARAM_NAMES
                 if getattr(args, k) is not None}
        if args.sweep != "n":
            if args.n is None:
                raise SystemExit(parser.exit_with_usage(
                    "parameter sweeps need a fixed --n"))
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
            raise SystemExit(parser.exit_with_usage(str(exc)))
        rows = run_sweep(spec)
    with _output(args.out) as stream:
        out = _writer(stream)
        out.writerow(SWEEP_COLUMNS)
        for row in rows:
            out.writerow([row[c] for c in SWEEP_COLUMNS])
    return EXIT_OK


def cmd_verify(args, parser) -> int:
    if args.list_suites:
        for name in SUITES:
            print(name)
        return EXIT_OK
    try:
        results = run_suites(args.suite or None)
    except KeyError as exc:
        raise SystemExit(parser.exit_with_usage(str(exc.args[0])))
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


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    # the width argparse's formatter would compute for itself
    width = shutil.get_terminal_size().columns - 2
    parser = _Parser(
        prog="dopfisher",
        description="Relative Fisher information of the classical discrete "
                    "orthogonal polynomial families.",
        epilog="Exit codes: 0 success, 1 verification failure, "
               "2 parameter-domain error, 64 usage error.",
        width=width)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=partial(_Parser, width=width))

    p_fisher = sub.add_parser("fisher", help="evaluate one polynomial's Fisher "
                                             "information by every route")
    _add_family_flags(p_fisher)
    p_fisher.add_argument("--n", type=int, required=True, help="polynomial degree")
    p_fisher.add_argument("--methods", default="direct,difference,expansion,closed")
    _add_numeric_flags(p_fisher, default_backend="float")
    p_fisher.set_defaults(func=cmd_fisher)

    p_eval = sub.add_parser("eval", help="monic polynomial values")
    _add_family_flags(p_eval)
    p_eval.add_argument("--n", type=int, required=True)
    p_eval.add_argument("--x", type=Fraction)
    p_eval.add_argument("--x-start", type=int)
    p_eval.add_argument("--x-stop", type=int)
    _add_numeric_flags(p_eval, default_backend="exact")
    p_eval.set_defaults(func=cmd_eval)

    p_density = sub.add_parser("density", help="probability-mass values of the "
                                               "degree-n density")
    _add_family_flags(p_density)
    p_density.add_argument("--n", type=int, required=True)
    p_density.add_argument("--x", type=int)
    p_density.add_argument("--x-start", type=int)
    p_density.add_argument("--x-stop", type=int)
    p_density.add_argument("--all", action="store_true",
                           help="every point of a bounded support")
    _add_numeric_flags(p_density, default_backend="exact")
    p_density.set_defaults(func=cmd_density)

    p_sweep = sub.add_parser("sweep", help="sweep a parameter or the degree to CSV")
    _add_family_flags(p_sweep, required=False)
    p_sweep.add_argument("--n", type=int, help="degree (fixed, for parameter sweeps)")
    p_sweep.add_argument("--sweep", choices=("n",) + PARAM_NAMES)
    p_sweep.add_argument("--start", type=Fraction)
    p_sweep.add_argument("--stop", type=Fraction)
    p_sweep.add_argument("--count", type=int)
    p_sweep.add_argument("--label", help="curve name of a manual sweep (default: sweep)")
    p_sweep.add_argument("--figure", help="run a stock figure configuration")
    p_sweep.add_argument("--figures-file", help="alternative figure config path")
    p_sweep.add_argument("--list-figures", action="store_true")
    p_sweep.add_argument("--methods",
                         help="default: a figure curve's own methods, else expansion")
    p_sweep.add_argument("--out", default="-", help="output CSV path (default stdout)")
    _add_numeric_flags(p_sweep, default_backend="exact")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.add_argument("--suite", action="append",
                          help="suite name (repeatable; default: all)")
    p_verify.add_argument("--list-suites", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return parser


@lru_cache(maxsize=None)   # on the first call, not at import: importers may never call main
def _shared_parser() -> _Parser:
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if getattr(args, "dps", 0) is None:   # per call: the parser is shared
        args.dps = _default_dps()
    try:
        return args.func(args, parser)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (ParameterDomainError, DegreeOutOfRange, OutOfSupport) as exc:
        print(f"dopfisher: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
