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

A call reads the invoked command's flag table (``_COMMANDS``) directly and
builds no parser.  A missing or unknown command, and any token the table
does not take exactly (help, an abbreviated or unknown flag, a value that
fails, a missing required flag, a stray token), go to the full argparse tree
(``build_parser``), which prints the help or usage error, or accepts what
argparse alone accepts.  Every rational flag reads its value with
``_fraction``, so ``1/0`` is a bad value (exit 64) like ``x``.  ``eval`` and
``density`` pick their points (``_points``) and write their rows
(``_point_rows``) alike.  Only ``verify`` loads its suites.
"""

from __future__ import annotations

import argparse
import csv
import gc
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache, partial
from operator import itemgetter
from typing import List, Optional

from .families import (
    DegreeOutOfRange,
    OutOfSupport,
    ParameterDomainError,
    make_family,
)
from .fisher import Method, fisher_report, rakhmanov_densities
from .numerics import DEFAULT_DPS
from .sweeps import (
    PARAM_NAMES,
    SWEEP_COLUMNS,
    SweepSpec,
    format_params,
    format_scalar,
    linear_grid,
    load_figures,
    parse_methods,
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
    parameter-domain code here) to the sysexits-style 64."""

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


def _fraction(raw: str) -> Fraction:
    """``Fraction(raw)``, with a zero denominator a bad value like any other."""
    try:
        return Fraction(raw)
    except ZeroDivisionError:
        raise ValueError(raw) from None


_fraction.__name__ = "Fraction"   # argparse's "invalid Fraction value: ..."


def _family_flags(required=True):
    return (("--family", dict(required=required,
                              choices=["charlier", "meixner", "kravchuk", "hahn"])),
            ("--mu", dict(type=_fraction, help="Charlier/Meixner parameter")),
            ("--gamma", dict(type=_fraction, help="Meixner parameter")),
            ("--p", dict(type=_fraction, help="Kravchuk parameter")),
            ("--N", dict(type=int, help="Kravchuk/Hahn lattice size")),
            ("--alpha", dict(type=_fraction, help="Hahn parameter")),
            ("--beta", dict(type=_fraction, help="Hahn parameter")))


def _dps_arg(raw: str) -> int:
    value = int(raw)
    if value < 50:
        raise argparse.ArgumentTypeError("the float backend is contracted to "
                                         "at least 50 decimal digits")
    return value


def _numeric_flags(default_backend):
    return (("--backend", dict(choices=["exact", "float"], default=default_backend)),
            ("--dps", dict(type=_dps_arg, default=None,
                           help="decimal digits of the float backend (>= 50; "
                                "default 80, env DOPFISHER_DPS)")))


def _family_from_args(args):
    params = {k: getattr(args, k) for k in PARAM_NAMES}
    try:
        return make_family(args.family, **params)
    except ValueError as exc:
        if isinstance(exc, ParameterDomainError):
            raise
        raise _usage_error(str(exc))


def _writer(stream):
    return csv.writer(stream, lineterminator="\n")


@contextmanager
def _output(path):
    """stdout for ``None`` or ``-``, else the file at ``path``, closed after
    use; a failed open, write or close is a usage error."""
    if path in (None, "-"):
        yield sys.stdout
        return
    try:
        stream = open(path, "w", newline="")
    except OSError as exc:
        raise _usage_error(f"cannot open --out {path!r}: {exc.strerror}")
    try:
        with stream:
            yield stream
    except OSError as exc:
        raise _usage_error(f"cannot write --out {path!r}: {exc.strerror}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


_FISHER_FLAGS = (*_family_flags(),
                 ("--n", dict(type=int, required=True, help="polynomial degree")),
                 ("--methods", dict(default="direct,difference,expansion,closed")),
                 *_numeric_flags(default_backend="float"))


def cmd_fisher(args) -> int:
    fam = _family_from_args(args)
    try:
        methods = parse_methods(args.methods)
    except ValueError as exc:
        raise _usage_error(str(exc))
    report = fisher_report(fam, args.n, methods=methods)
    disc = ""
    if report.max_pairwise_rel_discrepancy is not None:
        disc = format_scalar(report.max_pairwise_rel_discrepancy, "float", 8)
    out = _writer(sys.stdout)
    out.writerow(FISHER_COLUMNS)
    params = format_params(fam)
    for method in methods:
        value, converged, error = route_cells(report, method, args.backend, args.dps)
        if error:
            print(f"{method.value}: {error}", file=sys.stderr)
        out.writerow([fam.tag, args.n, params, method.value, value, converged, disc])
    return EXIT_OK


def _points(args, needs: str) -> list:
    """The ``--x`` point, else the ``--x-start`` to ``--x-stop`` range;
    without either, the usage error ``needs``."""
    if args.x is not None:
        return [args.x]
    if args.x_start is not None and args.x_stop is not None:
        return list(range(args.x_start, args.x_stop + 1))
    raise _usage_error(needs)


def _point_rows(fam, args, column: str, points, values) -> int:
    """The header, then one row per point of ``values(n, points)``, which is
    called after the header is written."""
    out = _writer(sys.stdout)
    out.writerow(["family", "n", "params", "x", column])
    params = format_params(fam)
    for x, value in zip(points, values(args.n, points)):
        out.writerow([fam.tag, args.n, params, x,
                      format_scalar(value, args.backend, args.dps)])
    return EXIT_OK


_EVAL_FLAGS = (*_family_flags(),
               ("--n", dict(type=int, required=True)),
               ("--x", dict(type=_fraction)),
               ("--x-start", dict(type=int)),
               ("--x-stop", dict(type=int)),
               *_numeric_flags(default_backend="exact"))


def cmd_eval(args) -> int:
    fam = _family_from_args(args)
    points = _points(args, "eval needs --x or --x-start/--x-stop")
    return _point_rows(fam, args, "value", points, fam.eval_points)


_DENSITY_FLAGS = (*_family_flags(),
                  ("--n", dict(type=int, required=True)),
                  ("--x", dict(type=int)),
                  ("--x-start", dict(type=int)),
                  ("--x-stop", dict(type=int)),
                  ("--all", dict(action="store_true",
                                 help="every point of a bounded support")),
                  *_numeric_flags(default_backend="exact"))


def cmd_density(args) -> int:
    fam = _family_from_args(args)
    sup = fam.support()
    if not args.all:
        points = _points(args, "density needs --x, --x-start/--x-stop, or --all")
    elif sup.b is None:
        raise _usage_error("--all needs a bounded support; give --x or --x-start/--x-stop")
    else:
        points = list(sup.points())
    return _point_rows(fam, args, "density", points,
                       partial(rakhmanov_densities, fam, dps=args.dps))


#: flags that only a manual sweep reads
_MANUAL_SWEEP_FLAGS = ("family",) + PARAM_NAMES + ("n", "sweep", "start", "stop",
                                                   "count", "label")


_SWEEP_FLAGS = (*_family_flags(required=False),
                ("--n", dict(type=int, help="degree (fixed, for parameter sweeps)")),
                ("--sweep", dict(choices=("n",) + PARAM_NAMES)),
                ("--start", dict(type=_fraction)),
                ("--stop", dict(type=_fraction)),
                ("--count", dict(type=int)),
                ("--label", dict(help="curve name of a manual sweep (default: sweep)")),
                ("--figure", dict(help="run a stock figure configuration")),
                ("--figures-file", dict(help="alternative figure config path")),
                ("--list-figures", dict(action="store_true")),
                ("--methods",
                 dict(help="default: a figure curve's own methods, else expansion")),
                ("--out", dict(default="-", help="output CSV path (default stdout)")),
                *_numeric_flags(default_backend="exact"))


def cmd_sweep(args) -> int:
    try:   # an unknown figure (KeyError), a bad methods list, config, grid or spec
        # without --methods, figure curves keep their own methods key
        methods = None if args.methods is None else parse_methods(args.methods)
        if args.figure or args.list_figures:
            mode = "--figure" if args.figure else "--list-figures"
            if args.figure and args.list_figures:
                raise _usage_error("--figure and --list-figures clash")
            given = [f"--{k}" for k in _MANUAL_SWEEP_FLAGS if getattr(args, k) is not None]
            if given:
                raise _usage_error(
                    f"{mode} does not take the manual-sweep flags {', '.join(given)}")
            if args.list_figures:
                listing = [f"{fig_id}: {', '.join(s.label for s in specs)}\n"
                           for fig_id, specs in load_figures(args.figures_file).items()]
                with _output(args.out) as stream:
                    stream.writelines(listing)
                return EXIT_OK
            rows = run_figure(args.figure, path=args.figures_file, methods=methods,
                              backend=args.backend, dps=args.dps)
        else:
            if None in (args.sweep, args.start, args.stop, args.count):
                raise _usage_error("manual sweeps need --sweep, --start, --stop, --count "
                                   "(or use --figure)")
            if args.family is None:
                raise _usage_error("manual sweeps need --family (or use --figure)")
            fixed = {k: getattr(args, k) for k in PARAM_NAMES if getattr(args, k) is not None}
            if args.sweep != "n":
                if args.n is None:
                    raise _usage_error("parameter sweeps need a fixed --n")
                fixed["n"] = args.n
            fixed.pop(args.sweep, None)
            rows = run_sweep(SweepSpec(
                family=args.family, sweep=args.sweep, fixed=fixed,
                grid=linear_grid(args.start, args.stop, args.count),
                methods=methods or (Method.EXPANSION,), backend=args.backend, dps=args.dps,
                label="sweep" if args.label is None else args.label))
    except (KeyError, ValueError) as exc:
        raise _usage_error(str(exc.args[0]))
    with _output(args.out) as stream:
        out = _writer(stream)
        out.writerow(SWEEP_COLUMNS)
        out.writerows(map(itemgetter(*SWEEP_COLUMNS), rows))
    return EXIT_OK


_VERIFY_FLAGS = (("--suite", dict(action="append",
                                   help="suite name (repeatable; default: all)")),
                 ("--list-suites", dict(action="store_true")))


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


#: every command: its help line, its flags as ``(flag, add_argument kwargs)``
#: in help order, its body
_COMMANDS = {
    "fisher": ("evaluate one polynomial's Fisher information by every route",
               _FISHER_FLAGS, cmd_fisher),
    "eval": ("monic polynomial values", _EVAL_FLAGS, cmd_eval),
    "density": ("probability-mass values of the degree-n density",
                _DENSITY_FLAGS, cmd_density),
    "sweep": ("sweep a parameter or the degree to CSV", _SWEEP_FLAGS, cmd_sweep),
    "verify": ("run the invariant suites", _VERIFY_FLAGS, cmd_verify),
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
    for name, (help_line, flags, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flag, kwargs in flags:
            command.add_argument(flag, **kwargs)
    return parser


@lru_cache(maxsize=None)   # built on first need (help and usage errors only), never at import
def _shared_parser() -> _Parser:
    return build_parser()


def _direct_parse(argv: List[str]) -> Optional[argparse.Namespace]:
    """The Namespace the full tree gives ``argv`` when every token after the
    command is one of its flags spelt out, as ``--f=v`` or ``--f v``, with a
    value that its ``type`` and ``choices`` take, and no required flag is
    left out; else None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    table, values = {}, {"command": argv[0]}
    for flag, kwargs in _COMMANDS[argv[0]][1]:
        dest = flag[2:].replace("-", "_")
        table[flag] = dest, kwargs
        values[dest] = kwargs.get("default",
                                  False if kwargs.get("action") == "store_true" else None)
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, raw = token.partition("=")
        if flag not in table:
            return None
        dest, kwargs = table[flag]
        action = kwargs.get("action")
        if action == "store_true":
            if eq:
                return None
            values[dest] = True
            continue
        if not eq:
            raw = next(tokens, "-")   # no value hands over as a "-" one does
            if raw.startswith("-"):
                return None
        try:
            value = kwargs.get("type", str)(raw)
        except (argparse.ArgumentTypeError, TypeError, ValueError):   # argparse's usage errors
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[dest] = (values[dest] or []) + [value] if action == "append" else value
    # a value read is never None, so a required flag left out still is
    if any(kwargs.get("required") and values[dest] is None for dest, kwargs in table.values()):
        return None
    return argparse.Namespace(**values)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _direct_parse(argv)
        if args is None:
            # help, a missing or unknown command, or a token the flag table
            # does not take exactly: the full tree prints the help or usage
            # error it always printed, or parses what argparse alone accepts
            # (an abbreviated flag, a negative or lone "-" value)
            args = _shared_parser().parse_args(argv)
        if getattr(args, "dps", 0) is None:   # DOPFISHER_DPS is read on every call
            args.dps = _default_dps()
        return _COMMANDS[args.command][2](args)
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
