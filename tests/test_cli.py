import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dopfisher
from dopfisher import cli, sweeps
from dopfisher.cli import main
from dopfisher.families import Charlier, Hahn, Kravchuk, Meixner
from dopfisher.fisher import Method, fisher_expansion
from dopfisher.numerics import DEFAULT_DPS
from dopfisher.sweeps import SWEEP_COLUMNS, format_scalar, load_figures, run_figure
from dopfisher.verify import SUITES

from oracles import density_per_point, unlimited_str

F = Fraction


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestFisherCommand:
    def test_charlier_rows(self, capsys):
        code, out, _ = run_cli(capsys, ["fisher", "--family", "charlier",
                                        "--mu", "2", "--n", "3"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["family", "n", "params", "method", "value",
                          "converged", "discrepancy"]
        assert [r[3] for r in rows] == ["direct", "difference", "expansion", "closed"]
        for row in rows:
            assert abs(float(row[4]) - 1.5) < 1e-25
            assert row[5] == "true"
        by_method = {r[3]: r[4] for r in rows}
        assert by_method["expansion"] == "1.5"
        assert by_method["closed"] == "1.5"

    def test_degree_zero_rows_are_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["fisher", "--family", "charlier",
                                        "--mu", "2", "--n", "0"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 4
        assert all(float(r[4]) == 0 for r in rows)

    def test_kravchuk_exact_backend(self, capsys):
        code, out, _ = run_cli(capsys, ["fisher", "--family", "kravchuk",
                                        "--p", "0.5", "--N", "3", "--n", "2",
                                        "--backend", "exact"])
        assert code == 0
        _, rows = parse_csv(out)
        assert all(r[4] == "16/3" for r in rows)
        assert all(r[6] == "0.0" for r in rows)

    def test_hahn_reports_convergence_flag(self, capsys):
        code, out, _ = run_cli(capsys, ["fisher", "--family", "hahn",
                                        "--alpha", "0", "--beta", "0",
                                        "--N", "8", "--n", "2",
                                        "--methods", "expansion,closed",
                                        "--backend", "exact"])
        assert code == 0
        _, rows = parse_csv(out)
        flags = {r[3]: r[5] for r in rows}
        assert flags["closed"] in ("true", "false")
        assert rows[0][3] == "expansion"

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["fisher", "--family", "charlier",
                                        "--mu", "-1", "--n", "3"])
        assert code == 2
        assert "mu must be > 0" in err

    def test_degree_out_of_range_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, ["fisher", "--family", "kravchuk",
                                      "--p", "1/2", "--N", "3", "--n", "9"])
        assert code == 2

    def test_route_failure_leaves_value_empty(self, capsys, monkeypatch):
        # an injected failure inside the Hahn closed form
        def fail(self, n):
            raise ZeroDivisionError("injected")

        monkeypatch.setattr(dopfisher.families.Hahn, "closed_form", fail)
        hahn = ["--family", "hahn", "--alpha=-1/2", "--beta=-1/2", "--N", "12"]
        code, out, err = run_cli(capsys, ["fisher", *hahn, "--n", "4",
                                          "--backend", "exact"])
        assert code == 0
        assert err == "closed: ZeroDivisionError: injected\n"
        _, rows = parse_csv(out)
        fisher_cells = {r[3]: (r[4], r[5]) for r in rows}
        assert fisher_cells["closed"] == ("", "false")
        assert fisher_cells["expansion"] == ("93824/15015", "true")
        # a sweep at the same point renders the same cells
        code, out, _ = run_cli(capsys, ["sweep", *hahn, "--sweep", "n", "--start", "4",
                                        "--stop", "4", "--count", "1",
                                        "--methods", "closed,expansion"])
        assert code == 0
        _, rows = parse_csv(out)
        assert [(r[6], r[7], r[8]) for r in rows] == [
            ("closed",) + fisher_cells["closed"],
            ("expansion",) + fisher_cells["expansion"]]
        assert err.splitlines()[0] == f"closed: {rows[0][9]}"
        assert rows[1][9] == ""

    def test_infinite_lattice_routes_print_rationals(self, capsys):
        code, out, _ = run_cli(capsys, ["fisher", "--family", "meixner", "--gamma", "3/2",
                                        "--mu", "1/2", "--n", "3", "--backend", "exact"])
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[3] for r in rows] == ["direct", "difference", "expansion", "closed"]
        assert len({r[4] for r in rows}) == 1 and "/" in rows[0][4]
        assert all(r[5] == "true" and r[6] == "0.0" for r in rows)

    def test_fisher_exact_value_past_the_int_str_limit(self, capsys):
        # a Hahn value at n = 1500 whose numerator and denominator pass the
        # limit too
        code, out, err = run_cli(capsys, ["fisher", "--family", "hahn", "--alpha", "7/3",
                                          "--beta", "11/6", "--N", "4000", "--n", "1500",
                                          "--methods", "expansion", "--backend", "exact"])
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        value = unlimited_str(fisher_expansion(Hahn(F(7, 3), F(11, 6), 4000), 1500))
        assert len(value) > 2 * 4300 and [row[4] for row in rows] == [value]

    def test_missing_parameter_exits_64(self, capsys):
        code, _, err = run_cli(capsys, ["fisher", "--family", "charlier", "--n", "3"])
        assert code == 64
        assert "requires parameters" in err

    def test_unknown_method_exits_64(self, capsys):
        code, _, _ = run_cli(capsys, ["fisher", "--family", "charlier",
                                      "--mu", "2", "--n", "3",
                                      "--methods", "magic"])
        assert code == 64

    def test_dps_env_default(self, capsys, monkeypatch):
        # Charlier mu = 3, n = 1 is 1/3: a decimal that never terminates
        monkeypatch.setenv("DOPFISHER_DPS", "60")
        code, out, _ = run_cli(capsys, ["fisher", "--family", "charlier",
                                        "--mu", "3", "--n", "1",
                                        "--methods", "direct"])
        assert code == 0
        _, rows = parse_csv(out)
        digits = len(rows[0][4].replace(".", "").lstrip("0"))
        assert 50 <= digits <= 62

    def test_dps_env_read_on_every_call(self, capsys, monkeypatch):
        # the parser is shared by every call in a process, so its default
        # must not freeze the environment of the call that built it
        argv = ["fisher", "--family", "charlier", "--mu", "3", "--n", "1",
                "--methods", "direct"]

        def digits():
            code, out, _ = run_cli(capsys, argv)
            assert code == 0
            _, rows = parse_csv(out)
            return len(rows[0][4].replace(".", "").lstrip("0"))

        monkeypatch.delenv("DOPFISHER_DPS", raising=False)
        assert digits() == 80
        monkeypatch.setenv("DOPFISHER_DPS", "60")
        assert 50 <= digits() <= 62
        monkeypatch.setenv("DOPFISHER_DPS", "30")  # below the contract: default
        assert digits() == 80


class TestSharedParser:
    """A call reads its command's flag table; help, a missing or unknown
    command and any token the table does not take exactly go to the full
    tree.  Either way the text is the full tree's."""

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["fisher", "--help"],
        ["eval", "--help"],
        ["density", "--help"],
        ["sweep", "--help"],
        ["verify", "--help"],
        ["fisher", "--family", "charlier", "--mu", "2"],
        ["fisher", "--family", "charlier", "--mu", "2", "--n", "1", "--dps", "10"],
        ["eval", "--family=bogus"],
        ["verify", "--suite", "charlier", "--dps", "60"],
        [],
        ["bogus"],
    ], ids=["help", "fisher-help", "eval-help", "density-help", "sweep-help", "verify-help",
            "missing-n", "dps-below-contract", "bad-choice", "stray-arguments",
            "no-command", "unknown-command"])
    def test_same_output_on_every_call_and_from_a_fresh_parser(self, capsys, argv):
        # the first call below builds the parsers it needs
        cli._shared_parser.cache_clear()
        first = run_cli(capsys, argv)
        second = run_cli(capsys, argv)
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        captured = capsys.readouterr()
        assert first == second == (exc.value.code, captured.out, captured.err)
        assert first[0] in (0, 64)

    @pytest.mark.parametrize("argv, message", [
        (["eval", "--family=charlier", "--mu=2", "--n=1"],
         "eval needs --x or --x-start/--x-stop"),
        (["density", "--family=charlier", "--mu=2", "--n=1", "--all"],
         "--all needs a bounded support; give --x or --x-start/--x-stop"),
        (["sweep", "--figure", "fig1", "--n", "3"],
         "--figure does not take the manual-sweep flags --n"),
        (["fisher", "--family=charlier", "--mu=2", "--n=1", "--methods=bogus"],
         "unknown method 'bogus'; choose from direct, difference, expansion, closed"),
        (["verify", "--suite", "nope"],
         f"unknown suites ['nope']; available: {list(SUITES)}"),
    ], ids=["eval-no-point", "density-all-unbounded", "figure-with-n", "bad-method",
            "unknown-suite"])
    def test_command_usage_errors_keep_the_top_level_prog(self, capsys, argv, message):
        # found by the command, not by its parser: no usage line, and the
        # prog the full tree always gave them
        assert run_cli(capsys, argv) == (64, "", f"dopfisher: error: {message}\n")

    #: sha256 of the top-level and every command's help, and of the errors of
    #: no and of an unknown command, at 80 columns (captured when one parser
    #: tree served every call): the parity tests above compare two parsers
    #: built from one command table, so they cannot see a flag reordered or
    #: reworded there
    HELP_DIGEST = "57c0ba33026072b858e15f57c25c5523e06eaf2affb88ce7b7afea7d597b267c"

    def test_help_and_usage_texts_are_pinned(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        cli._shared_parser.cache_clear()   # the first help call builds the tree
        try:
            texts = [run_cli(capsys, argv) for argv in (
                ["--help"], *([name, "--help"] for name in
                              ("fisher", "eval", "density", "sweep", "verify")),
                [], ["bogus"])]
        finally:   # later tests build their own tree
            cli._shared_parser.cache_clear()
        assert hashlib.sha256(repr(texts).encode()).hexdigest() == self.HELP_DIGEST


def valid_values(kwargs):
    """Value strings that ``kwargs``' type and choices take."""
    if "choices" in kwargs:
        return st.sampled_from(kwargs["choices"])
    kind = kwargs.get("type")
    if kind is cli._dps_arg:
        return st.integers(min_value=50, max_value=90).map(str)
    if kind is int:
        return st.integers(min_value=-3, max_value=30).map(str)
    if kind is cli._fraction:
        return st.fractions(min_value=-5, max_value=5, max_denominator=9).map(str)
    return st.sampled_from(["", "a", "fig1", "x y", "a=b", "-"])


@st.composite
def flag_tokens(draw, flag, kwargs):
    """One use of ``flag``: ``--f``, ``--f=v`` or ``--f v``."""
    if kwargs.get("action") == "store_true":
        return [flag]
    value = draw(valid_values(kwargs))
    return draw(st.sampled_from([[f"{flag}={value}"], [flag, value]]))


#: values that fail some flag's type or choices, or start with "-"; and
#: tokens that no table takes: help, stray tokens, unknown flags
BAD_VALUES = ["bogus", "1/x", "", "2.5", "-", "-3", "-1/2", "40", "--n"]
STRAY = ["x", "3", "-h", "--help", "--", "-", "--bogus", "--bogus=1"]


@st.composite
def command_lines(draw):
    """A command and its flags drawn from its table, in random order and
    with repeats; half of them then get one flaw."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    table = cli._COMMANDS[name][1]
    uses = []
    for flag, kwargs in table:
        times = draw(st.sampled_from([1, 1, 2] if kwargs.get("required") else [0, 0, 0, 1, 2]))
        uses += [draw(flag_tokens(flag, kwargs)) for _ in range(times)]
    flaw = draw(st.sampled_from(["none"] * 4 + ["value", "abbreviate", "stray", "explicit",
                                                 "drop"]))
    if uses and flaw in ("value", "abbreviate"):
        i = draw(st.integers(min_value=0, max_value=len(uses) - 1))
        flag = uses[i][0].partition("=")[0]
        if flaw == "value":
            uses[i] = draw(st.sampled_from([[f"{flag}={v}"] for v in BAD_VALUES]
                                           + [[flag, v] for v in BAD_VALUES]))
        elif flaw == "abbreviate" and len(flag) > 3:
            cut = flag[:draw(st.integers(min_value=3, max_value=len(flag) - 1))]
            uses[i] = [cut + t[len(flag):] if t.startswith(flag) else t for t in uses[i]]
    required = [flag for flag, kwargs in table if kwargs.get("required")]
    if flaw == "drop" and required:
        gone = draw(st.sampled_from(required))
        uses = [use for use in uses if use[0].partition("=")[0] != gone]
    switches = [flag for flag, kwargs in table if kwargs.get("action") == "store_true"]
    if flaw == "explicit" and switches:
        uses.append([f"{draw(st.sampled_from(switches))}={draw(st.sampled_from(['1', '']))}"])
    if flaw == "stray":
        uses.append([draw(st.sampled_from(STRAY))])
    return [name] + [token for use in draw(st.permutations(uses)) for token in use]


PARITY = settings(derandomize=True, max_examples=300, deadline=None)


def echo(args):
    """Stands in for every command body: prints what the parse gave."""
    print(sorted(vars(args).items()))
    return cli.EXIT_OK


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestDirectParse:
    """The flag tables' direct parse gives what the full tree gives: on any
    command line drawn from a table, with or without a flaw, ``main`` prints
    and exits as it does with every line sent to the full tree, and a
    Namespace the direct parse returns equals the full tree's."""

    @PARITY
    @given(command_lines())
    def test_same_outcome_as_the_full_tree(self, argv):
        bodies = {name: (help_line, flags, echo)
                  for name, (help_line, flags, _) in cli._COMMANDS.items()}
        with mock.patch.dict(cli._COMMANDS, bodies):
            direct = cli._direct_parse(argv)
            ours = call(argv)
            with mock.patch.object(cli, "_direct_parse", return_value=None):
                assert ours == call(argv)
        if direct is not None:
            assert vars(direct) == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        ["fisher", "--family=charlier", "--mu", "-2", "--n", "1"],
        ["fisher", "--fam=charlier", "--mu=2", "--n=1"],
        ["fisher", "--family=charlier", "--mu=2", "--n", "-3"],
        ["sweep", "--figure", "fig1", "--out", "-"],
        ["density", "--family=hahn", "--n=1", "--all=1"],
        ["fisher", "--family=charlier", "--mu=2"],
    ], ids=["negative-mu", "abbreviated", "negative-n", "lone-dash", "explicit-store-true",
            "missing-required"])
    def test_tokens_the_table_does_not_take_go_to_the_full_tree(self, argv):
        assert cli._direct_parse(argv) is None

    def test_drawn_lines_reach_both_paths(self):
        # the property above would pass vacuously if every drawn line went to
        # the full tree, or none did
        taken = []

        @PARITY
        @given(command_lines())
        def record(argv):
            taken.append(cli._direct_parse(argv) is not None)

        record()
        assert 0.3 < sum(taken) / len(taken) < 0.8


class TestEvalAndDensity:
    def test_eval_single_point(self, capsys):
        code, out, _ = run_cli(capsys, ["eval", "--family", "hahn",
                                        "--alpha", "0", "--beta", "0",
                                        "--N", "5", "--n", "1", "--x", "0"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows == [["hahn", "1", "N=5;alpha=0;beta=0", "0", "-2"]]

    def test_eval_range(self, capsys):
        code, out, _ = run_cli(capsys, ["eval", "--family", "charlier",
                                        "--mu", "2", "--n", "1",
                                        "--x-start", "0", "--x-stop", "3"])
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[4] for r in rows] == ["-2", "-1", "0", "1"]

    def test_eval_exact_value_past_the_int_str_limit(self, capsys):
        # P_3000(7) has 10582 digits, past the interpreter's default limit of
        # 4300 on int-to-str conversion, which the run leaves as it is
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, ["eval", "--family", "meixner", "--gamma", "5/3",
                                          "--mu", "3/4", "--n", "3000", "--x", "7"])
        assert code == 0 and err == "" and sys.get_int_max_str_digits() == limit
        _, rows = parse_csv(out)
        value = unlimited_str(Meixner(F(5, 3), F(3, 4)).eval_poly(3000, 7))
        assert len(value) > 4300 and rows == [["meixner", "3000", "mu=3/4;gamma=5/3", "7", value]]

    def test_eval_needs_a_point(self, capsys):
        code, _, _ = run_cli(capsys, ["eval", "--family", "charlier",
                                      "--mu", "2", "--n", "1"])
        assert code == 64

    def test_density_all(self, capsys):
        code, out, _ = run_cli(capsys, ["density", "--family", "kravchuk",
                                        "--p", "1/2", "--N", "3", "--n", "0",
                                        "--all"])
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[4] for r in rows] == ["1/8", "3/8", "3/8", "1/8"]

    @pytest.mark.parametrize("argv, fam, xs", [
        (["--family=kravchuk", "--p=2/7", "--N=9", "--n=4", "--all"], Kravchuk(F(2, 7), 9), range(10)),
        (["--family=hahn", "--alpha=1/2", "--beta=-2/3", "--N=12", "--n=5", "--all"],
         Hahn(F(1, 2), F(-2, 3), 12), range(12)),
        (["--family=hahn", "--alpha=-1/3", "--beta=-2/3", "--N=7", "--n=3", "--all",
          "--backend=float"], Hahn(F(-1, 3), F(-2, 3), 7), range(7)),
        (["--family=charlier", "--mu=7/3", "--n=3", "--x-start=2", "--x-stop=9"],
         Charlier(F(7, 3)), range(2, 10)),
        (["--family=meixner", "--gamma=5/2", "--mu=9/10", "--n=4", "--x-start=0", "--x-stop=5",
          "--dps=55"], Meixner(F(5, 2), F(9, 10)), range(6)),
    ])
    def test_density_rows_equal_the_per_point_formula(self, capsys, argv, fam, xs):
        # the norm once, P_n in one pass and the weight walked point to point
        # print what w(x) P_n(x)^2 / d_n^2 taken for each point alone prints
        code, out, _ = run_cli(capsys, ["density"] + argv)
        assert code == 0
        n = int(next(a for a in argv if a.startswith("--n="))[4:])
        dps = int(next((a[6:] for a in argv if a.startswith("--dps=")), DEFAULT_DPS))
        backend = "float" if "--backend=float" in argv else "exact"
        _, rows = parse_csv(out)
        assert [(int(r[3]), r[4]) for r in rows] == [
            (x, format_scalar(density_per_point(fam, n, x, dps), backend, dps)) for x in xs]

    def test_density_range_stops_at_the_support_end(self, capsys):
        # rows up to the last lattice point, then the domain error
        code, out, _ = run_cli(capsys, ["density", "--family=kravchuk", "--p=2/7", "--N=9",
                                        "--n=4", "--x-start=7", "--x-stop=12"])
        assert code == 2
        _, rows = parse_csv(out)
        fam = Kravchuk(F(2, 7), 9)
        assert [r[4] for r in rows] == [str(density_per_point(fam, 4, x, 80)) for x in (7, 8, 9)]

    def test_density_all_takes_one_norm_and_one_weight(self, capsys, monkeypatch):
        # the per-point path took both at every one of the N points
        calls = {}
        for name in ("reduced_norm", "reduced_weight"):
            def counted(self, arg, _name=name, _original=getattr(Hahn, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(self, arg)
            monkeypatch.setattr(Hahn, name, counted)
        code, out, _ = run_cli(capsys, ["density", "--family=hahn", "--alpha=1/2",
                                        "--beta=2/3", "--N=60", "--n=5", "--all"])
        assert code == 0 and len(parse_csv(out)[1]) == 60
        assert calls == {"reduced_norm": 1, "reduced_weight": 1}

    def test_density_all_rejected_on_infinite_support(self, capsys):
        code, _, _ = run_cli(capsys, ["density", "--family", "charlier",
                                      "--mu", "2", "--n", "0", "--all"])
        assert code == 64

    def test_density_out_of_support_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, ["density", "--family", "kravchuk",
                                      "--p", "1/2", "--N", "3", "--n", "0",
                                      "--x", "9"])
        assert code == 2


class TestSweepCommand:
    def test_manual_sweep_rows(self, capsys):
        argv = ["sweep", "--family", "kravchuk", "--p", "1/7", "--n", "2",
                "--sweep", "N", "--start", "5", "--stop", "8", "--count", "4"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == list(SWEEP_COLUMNS)
        assert [r[3] for r in rows] == ["5", "6", "7", "8"]
        assert all(r[6] == "expansion" for r in rows)

    def test_byte_determinism(self, capsys):
        argv = ["sweep", "--figure", "fig5"]
        code, first, _ = run_cli(capsys, argv)
        assert code == 0
        code, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_domain_violations_become_error_rows(self, capsys):
        argv = ["sweep", "--family", "hahn", "--beta", "0", "--N", "8",
                "--n", "1", "--sweep", "alpha", "--start=-3/2", "--stop=1/2",
                "--count", "5"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        _, rows = parse_csv(out)
        errors = [r for r in rows if r[9]]
        values = [r for r in rows if not r[9]]
        assert len(errors) == 2  # alpha = -3/2 and -1
        assert len(values) == 3

    def test_non_integer_degree_grid_rejected(self, capsys):
        # the one integer check (SweepSpec's) reports a manual grid too
        argv = ["sweep", "--family", "charlier", "--mu", "2",
                "--sweep", "n", "--start", "1", "--stop", "2", "--count", "3"]
        assert run_cli(capsys, argv) == (
            64, "", "dopfisher: error: the degree and N must be integers, not 3/2\n")

    def test_manual_sweep_without_family_is_a_usage_error(self, capsys):
        # refused before the header is written
        argv = ["sweep", "--mu", "2", "--sweep", "n", "--start", "1", "--stop", "3",
                "--count", "3"]
        assert run_cli(capsys, argv) == (
            64, "", "dopfisher: error: manual sweeps need --family (or use --figure)\n")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        argv = ["sweep", "--family", "charlier", "--mu", "2", "--sweep", "n",
                "--start", "1", "--stop", "3", "--count", "3",
                "--out", str(target)]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and out == ""
        lines = target.read_text().splitlines()
        assert len(lines) == 4
        assert lines[1].split(",")[7] == "1/2"  # n/mu at n=1

    def test_usage_errors_come_before_the_out_file(self, capsys, tmp_path):
        # rows stream into --out, so every usage error must be raised before
        # the file is opened
        target = tmp_path / "rows.csv"
        for argv in (["--figure", "fig99"],
                     ["--figure", "fig1", "--figures-file", str(tmp_path / "absent.cfg")],
                     ["--family", "charlier", "--mu", "2", "--sweep", "n",
                      "--start", "1", "--stop", "2", "--count", "3"],
                     ["--family", "charlier", "--mu", "2", "--sweep", "mu",
                      "--start", "1", "--stop", "2", "--count", "2"]):
            code, out, _ = run_cli(capsys, ["sweep", *argv, "--out", str(target)])
            assert code == 64 and out == "" and not target.exists()

    def test_rows_stream_one_grid_point_at_a_time(self, monkeypatch):
        # a grid point is evaluated when its first row is read, so a long
        # sweep holds one point at a time
        degrees = []
        report = sweeps.fisher_report
        monkeypatch.setattr(sweeps, "fisher_report",
                            lambda fam, n, **kw: degrees.append(n) or report(fam, n, **kw))
        spec = sweeps.SweepSpec(family="charlier", sweep="n", fixed={"mu": F(2)},
                                grid=(1, 2, 3), methods=(Method.EXPANSION, Method.CLOSED))
        rows = sweeps.run_sweep(spec)
        assert degrees == []
        assert [next(rows)["n"], next(rows)["n"]] == ["1", "1"] and degrees == [1]
        assert next(rows)["n"] == "2" and degrees == [1, 2]
        rows = run_figure("fig1")
        assert degrees == [1, 2]
        next(rows)
        assert len(degrees) == 3
        assert len(list(rows)) == len(degrees) - 3

    def test_list_figures(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--list-figures"])
        assert code == 0
        listed = [line.split(":")[0] for line in out.splitlines()]
        assert listed == [f"fig{i}" for i in range(1, 11)]

    def test_list_figures_out_file(self, capsys, tmp_path):
        target = tmp_path / "figures.txt"
        code, out, _ = run_cli(capsys, ["sweep", "--list-figures", "--out", str(target)])
        assert code == 0 and out == ""
        listed = [line.split(":")[0] for line in target.read_text().splitlines()]
        assert listed == [f"fig{i}" for i in range(1, 11)]

    def test_figure_curve_methods_key(self, capsys, tmp_path):
        config = tmp_path / "figures.cfg"
        config.write_text("[figX.K]\nfamily = kravchuk\nsweep = n\np = 1/2\n"
                          "N = 4\nvalues = 1 2\nmethods = closed\n")
        argv = ["sweep", "--figure", "figX", "--figures-file", str(config)]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[6] for r in rows] == ["closed", "closed"]
        # --methods, when given, overrides the curve's key
        code, out, _ = run_cli(capsys, argv + ["--methods", "expansion"])
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[6] for r in rows] == ["expansion", "expansion"]

    def test_unknown_figure(self, capsys):
        code, _, _ = run_cli(capsys, ["sweep", "--figure", "fig99"])
        assert code == 64

    def test_missing_figures_file_is_a_usage_error(self, capsys, tmp_path):
        missing = str(tmp_path / "absent.cfg")
        for mode in (["--figure", "fig1"], ["--list-figures"]):
            code, out, err = run_cli(capsys, ["sweep", *mode, "--figures-file", missing])
            assert code == 64 and out == ""
            assert err.count("\n") == 1 and "absent.cfg" in err

    def test_out_path_that_cannot_be_opened_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "absent" / "rows.csv"
        for mode in (["--figure", "fig1"], ["--list-figures"]):
            code, out, err = run_cli(capsys, ["sweep", *mode, "--out", str(target)])
            assert code == 64 and out == "" and not target.parent.exists()
            assert err.count("\n") == 1 and "rows.csv" in err and "Traceback" not in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_out_write_that_fails_is_a_usage_error(self, capsys):
        # the open succeeds; the rows (or the listing) fail on write or close
        for mode in (["--figure", "fig1"], ["--list-figures"]):
            assert run_cli(capsys, ["sweep", *mode, "--out", "/dev/full"]) == (
                64, "", "dopfisher: error: cannot write --out '/dev/full': "
                        "No space left on device\n")

    def test_non_integer_degree_or_n_in_a_spec_is_refused(self):
        # int() would truncate 5/2 to degree 2 and 11/2 to N = 5; an
        # integer-valued Fraction still runs
        for fixed, sweep, grid in (({"mu": F(2)}, "n", (F(5, 2),)),
                                   ({"n": 2, "p": F(1, 3)}, "N", (F(11, 2),)),
                                   ({"n": 2, "N": F(11, 2)}, "p", (F(1, 3),)),
                                   ({"n": F(5, 2)}, "mu", (F(2),))):
            family = "charlier" if "mu" in fixed or sweep == "mu" else "kravchuk"
            with pytest.raises(ValueError, match="must be integers"):
                sweeps.SweepSpec(family=family, sweep=sweep, fixed=fixed, grid=grid)
        spec = sweeps.SweepSpec(family="charlier", sweep="n", fixed={"mu": F(2)},
                                grid=(F(3),))
        (row,) = sweeps.run_sweep(spec)
        assert (row["sweep_value"], row["n"], row["value"]) == ("3", "3", "3/2")

    def test_bad_methods_key_is_a_usage_error(self, capsys, tmp_path):
        config = tmp_path / "figures.cfg"
        config.write_text("[figX.K]\nfamily = kravchuk\nsweep = n\np = 1/2\n"
                          "N = 4\nvalues = 1 2\nmethods = bogus\n")
        for mode in (["--figure", "figX"], ["--list-figures"]):
            code, out, err = run_cli(capsys, ["sweep", *mode, "--figures-file", str(config)])
            assert code == 64 and out == ""
            assert err.count("\n") == 1 and "[figX.K]" in err
            assert err.endswith("unknown method 'bogus'; choose from direct, difference, "
                                "expansion, closed\n")

    def test_curve_without_family_or_grid_is_a_usage_error(self, capsys, tmp_path):
        config = tmp_path / "figures.cfg"
        config.write_text("[figX.K]\nsweep = n\np = 1/2\nN = 4\n")
        code, _, err = run_cli(capsys, ["sweep", "--figure", "figX",
                                        "--figures-file", str(config)])
        assert code == 64
        assert "missing 'family'; 'grid' or 'values'" in err

    def test_figure_rejects_manual_sweep_flags(self, capsys):
        for extra in (["--family", "hahn", "--mu", "3"], ["--n", "2"],
                      ["--sweep", "p", "--start", "0", "--stop", "1", "--count", "2"],
                      ["--label", "mine"]):
            code, out, err = run_cli(capsys, ["sweep", "--figure", "fig4", *extra])
            assert code == 64 and out == ""
            assert all(flag in err for flag in extra if flag.startswith("--"))
        # the flags every figure run may take stay allowed
        code, out, _ = run_cli(capsys, ["sweep", "--figure", "fig4", "--methods",
                                        "expansion", "--backend", "exact", "--dps",
                                        "60"])
        assert code == 0 and out.count("\n") == 48

    def test_figure_one_approaches_levels(self, capsys):
        # the three degree-sweep curves head toward 3, 3 and 6
        rows = run_figure("fig1")
        curves = {}
        for row in rows:
            curves.setdefault(row["curve"], []).append(Fraction(row["value"]))
        levels = {"M_3/2_1/4": 3, "M_4_1/4": 3, "M_3/2_1/7": 6}
        for label, values in curves.items():
            level = levels[label]
            assert abs(values[-1] - level) < abs(values[0] - level)

    def test_figures_config_is_complete(self):
        figures = load_figures()
        assert sorted(figures) == sorted(f"fig{i}" for i in range(1, 11))
        assert all(len(specs) >= 3 for specs in figures.values())

    def test_figure_run_builds_only_its_own_curves_once(self, monkeypatch):
        # a stock figure's curves are built on its first run and kept; the
        # other figures' sections stay unbuilt
        expected = [spec.label for spec in load_figures()["fig4"]]
        built, original = [], sweeps._curve_spec
        monkeypatch.setattr(sweeps, "_curve_spec",
                            lambda options, label: built.append(label) or original(options, label))
        sweeps._stock_config.cache_clear()
        try:
            first, again = list(run_figure("fig4")), list(run_figure("fig4"))
            assert built == expected and first == again
        finally:
            sweeps._stock_config.cache_clear()


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "charlier"])
        assert code == 0
        assert "suite charlier: PASS" in out
        assert out.strip().endswith("VERIFY: PASS")

    def test_list_suites(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--list-suites"])
        assert code == 0
        assert "three-way" in out.split()

    def test_unknown_suite_exits_64(self, capsys):
        code, _, _ = run_cli(capsys, ["verify", "--suite", "nope"])
        assert code == 64

    @pytest.mark.parametrize("flags", [["--dps", "60"], ["--backend", "exact"]])
    def test_precision_flags_are_not_verify_options(self, capsys, flags):
        # verify prints counts only, so it takes no backend or precision
        code, out, err = run_cli(capsys, ["verify", "--suite", "charlier", *flags])
        assert code == 64 and out == ""
        assert f"unrecognized arguments: {' '.join(flags)}" in err

    def test_help_lists_no_precision_flags(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--help"])
        assert code == 0
        assert "--suite" in out
        assert "--dps" not in out and "--backend" not in out


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["dopfisher", "dopfisher.cli"])
    def test_python_dash_m_runs_the_cli(self, module):
        src = str(Path(dopfisher.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", module, "verify", "--list-suites"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout.split() == list(SUITES)


#: run in a fresh interpreter: every call, then the watched modules loaded
#: (each watched name and its submodules)
IMPORT_GUARD = """
import contextlib, io, json, sys
import dopfisher.cli
calls, watched = json.loads(sys.argv[1]), json.loads(sys.argv[2])
codes = []
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(dopfisher.cli.main(argv))
    codes.append(sorted(m for m in sys.modules
                        if any(m == w or m.startswith(w + ".") for w in watched)))
print(json.dumps(codes))
"""

#: run in a fresh interpreter: the package root resolves its names lazily
LAZY_ROOT = """
import importlib, sys
import dopfisher
assert [m for m in sys.modules if m.startswith("dopfisher.")] == []
listed = dir(dopfisher)
for name in dopfisher.__all__:
    home = importlib.import_module("dopfisher." + dopfisher._HOMES[name])
    assert getattr(dopfisher, name) is getattr(home, name), name
    assert name in listed, name
from dopfisher import TruncationCapExceeded, TruncationPolicy
from dopfisher.fisher import TruncationCapExceeded as E, TruncationPolicy as P
assert TruncationCapExceeded is E and TruncationPolicy is P
"""


#: run in a fresh interpreter: every call's exit code, whether ``locale`` is
#: loaded after it, and how many argparse parsers were built up to then
PARSER_GUARD = """
import contextlib, io, json, sys
import dopfisher.cli
built = []
init = dopfisher.cli._Parser.__init__
def counted(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
dopfisher.cli._Parser.__init__ = counted
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([dopfisher.cli.main(argv), "locale" in sys.modules, len(built)])
print(json.dumps(seen))
"""


def run_fresh(script, *args):
    """Run ``script`` in a fresh interpreter on the package under test."""
    src = str(Path(dopfisher.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_guarded(calls, watched):
    """([exit code], [watched modules loaded after the call]) of ``calls``."""
    results = json.loads(run_fresh(IMPORT_GUARD, json.dumps(calls), json.dumps(watched)))
    return results[::2], results[1::2]


class TestImportGraph:
    """Every rational path prints without mpmath: the exact routes never use
    it, and rationals are printed from their integers.  Only the
    infinite-lattice density computes in big floats.  The package root loads
    no submodule, and only ``verify`` loads the suites and the limiting
    formulas."""

    RATIONAL_CALLS = [
        ["fisher", "--family=hahn", "--alpha=1/2", "--beta=2/3", "--N=12", "--n=5",
         "--backend=exact"],
        ["fisher", "--family=meixner", "--gamma=3/2", "--mu=1/3", "--n=6"],
        ["eval", "--family=kravchuk", "--p=1/3", "--N=9", "--n=4", "--x-start=0",
         "--x-stop=9", "--backend=float"],
        ["density", "--family=hahn", "--alpha=0", "--beta=1/2", "--N=6", "--n=2", "--all",
         "--backend=float"],
        ["sweep", "--figure", "fig1"],
        ["sweep", "--family=charlier", "--sweep=mu", "--start=1/2", "--stop=3", "--count=4",
         "--n=3", "--backend=float"],
    ]

    def test_rational_paths_never_import_mpmath(self):
        calls = self.RATIONAL_CALLS + [["density", "--family=charlier", "--mu=2", "--n=1",
                                        "--x=1"]]
        codes, loaded = run_guarded(calls, ["mpmath"])
        assert codes == [0] * len(calls)
        assert loaded[:-1] == [[]] * len(self.RATIONAL_CALLS)
        # the guard sees mpmath once the infinite-lattice density needs it
        assert "mpmath" in loaded[-1]

    def test_only_verify_loads_the_suites_and_the_limiting_formulas(self):
        calls = self.RATIONAL_CALLS + [["verify", "--list-suites"]]
        codes, loaded = run_guarded(calls, ["dopfisher.verify", "dopfisher.asymptotics"])
        assert codes == [0] * len(calls)
        assert loaded == [[]] * len(self.RATIONAL_CALLS) + [
            ["dopfisher.asymptotics", "dopfisher.verify"]]

    def test_valid_calls_build_no_parser_and_never_import_locale(self):
        # argparse's first gettext lookup imports locale; a valid call reads
        # the flag table alone, and only help and usage errors build parsers
        calls = self.RATIONAL_CALLS + [["verify", "--list-suites"], ["fisher", "--help"]]
        seen = json.loads(run_fresh(PARSER_GUARD, json.dumps(calls)))
        assert seen[:-1] == [[0, False, 0]] * (len(calls) - 1)
        # the guard sees both once a call prints help
        code, locale_loaded, built = seen[-1]
        assert code == 0 and locale_loaded and built > 0

    def test_package_root_resolves_every_public_name_lazily(self):
        run_fresh(LAZY_ROOT)

    def test_infinite_lattice_density_prints_nstr_digits(self, capsys):
        code, out, _ = run_cli(capsys, ["density", "--family", "charlier", "--mu", "7/3",
                                        "--n", "4", "--x-start", "0", "--x-stop", "2",
                                        "--dps", "50"])
        assert code == 0
        assert out == (
            "family,n,params,x,density\n"
            "charlier,4,mu=7/3,0,0.11976836154446324887170056017252475631955287154242\n"
            "charlier,4,mu=7/3,1,0.14258138279102767722821495258633899561851532326478\n"
            "charlier,4,mu=7/3,2,0.016430806969251760899632389774235255685562242014322\n")


class TestVerifyFailurePath:
    def test_failing_suite_exits_1(self, capsys, monkeypatch):
        from dopfisher import verify as verify_mod
        from dopfisher.verify import SuiteResult

        def broken():
            result = SuiteResult("broken")
            result.check(False, "family=charlier mu=2 n=3: forced failure for the exit-code path")
            return result

        monkeypatch.setitem(verify_mod.SUITES, "broken", broken)
        code = main(["verify", "--suite", "broken"])
        out = capsys.readouterr().out
        assert code == 1
        assert "suite broken: FAIL" in out
        assert "first failing case: family=charlier" in out
        assert out.strip().endswith("VERIFY: FAIL")

    def test_density_range_on_infinite_support(self, capsys):
        code, out, _ = run_cli(capsys, ["density", "--family", "charlier",
                                        "--mu", "2", "--n", "1",
                                        "--x-start", "0", "--x-stop", "2",
                                        "--dps", "60"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3
        assert all("." in r[4] for r in rows)  # irrational normalization: decimal output


class TestContractDetails:
    #: every flag whose type is an exact rational, by command, and a line
    #: that each command would run but for that flag
    FRACTION_FLAGS = {
        "fisher": (["--family=charlier", "--n=1"], ["--mu", "--gamma", "--p", "--alpha",
                                                    "--beta"]),
        "eval": (["--family=charlier", "--n=1"], ["--mu", "--gamma", "--p", "--alpha",
                                                  "--beta", "--x"]),
        "density": (["--family=charlier", "--n=1"], ["--mu", "--gamma", "--p", "--alpha",
                                                     "--beta"]),
        "sweep": ([], ["--mu", "--gamma", "--p", "--alpha", "--beta", "--start", "--stop"]),
    }

    def test_zero_denominator_is_a_usage_error(self, capsys):
        # Fraction("1/0") raises ZeroDivisionError, which argparse does not
        # take as a bad value: every rational flag reports it as one
        typed = {name: [flag for flag, kwargs in flags
                        if getattr(kwargs.get("type"), "__name__", "") == "Fraction"]
                 for name, (_, flags, _) in cli._COMMANDS.items()}
        assert typed == {**{name: flags for name, (_, flags) in self.FRACTION_FLAGS.items()},
                         "verify": []}
        for name, (line, flags) in self.FRACTION_FLAGS.items():
            for flag in flags:
                for tokens in ([f"{flag}=1/0"], [flag, "1/0"]):
                    code, out, err = run_cli(capsys, [name, *line, *tokens])
                    assert (code, out) == (64, "")
                    assert err.startswith("usage: ") and err.endswith(
                        f"dopfisher {name}: error: argument {flag}: "
                        "invalid Fraction value: '1/0'\n")

    def test_dps_below_contract_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["fisher", "--family", "charlier",
                                        "--mu", "2", "--n", "1", "--dps", "20"])
        assert code == 64
        assert "50 decimal digits" in err

    def test_sweep_rows_are_grid_major_method_minor(self, capsys):
        argv = ["sweep", "--family", "kravchuk", "--p", "1/2", "--n", "1",
                "--sweep", "N", "--start", "3", "--stop", "4", "--count", "2",
                "--methods", "expansion,closed"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        _, rows = parse_csv(out)
        assert [(r[3], r[6]) for r in rows] == [
            ("3", "expansion"), ("3", "closed"),
            ("4", "expansion"), ("4", "closed")]

    def test_kravchuk_float_backend_prints_decimal(self, capsys):
        code, out, _ = run_cli(capsys, ["fisher", "--family", "kravchuk",
                                        "--p", "0.5", "--N", "3", "--n", "2",
                                        "--methods", "expansion"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][4].startswith("5.3333333333")

    def test_float_values_round_trip_at_declared_precision(self, capsys):
        import mpmath
        from mpmath import mpf
        code, out, _ = run_cli(capsys, ["fisher", "--family", "charlier",
                                        "--mu", "3", "--n", "7",
                                        "--methods", "direct", "--dps", "60"])
        assert code == 0
        _, rows = parse_csv(out)
        with mpmath.workdps(60):
            reparsed = mpf(rows[0][4])
            assert abs(reparsed - mpf(7) / 3) < mpf(10) ** -25
            assert mpmath.nstr(reparsed, 55) == mpmath.nstr(mpf(rows[0][4]), 55)
