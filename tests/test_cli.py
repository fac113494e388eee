"""End-to-end tests for the replication driver."""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import inspect
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import as_fraction
from multistruct import chow, cli, cohomology, integrality, structures
from multistruct.arith import MultiPoly, var
from multistruct.chow import BundleClass
from multistruct.cli import (
    POINT_DIGITS_CAP,
    POINTS_CAP,
    R_CAP,
    ReplicationRecord,
    RUNNERS,
    main,
    parse_args,
    report_json,
)
from multistruct.graded import GradedCertificateError
from multistruct.grammar import parse_poly

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_REPORT = ROOT / "docs" / "example-report.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def full_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("report") / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["replicate", "all", "--json", str(path)])
    return code, json.loads(path.read_text())


EXPECTED_EXIT = {
    "double-conic": 1,  # section-degree prose slip reported
    "double-plane": 0,
    "triple-plane": 1,  # sign of the printed quartic coefficient
    "wedge": 1,  # printed c1 of the wedge square
    "koszul": 1,  # printed constant denominator
    "expansion": 1,  # five flipped signs below the leading coefficient
    "congruence": 0,
    "graded": 0,
    "ext-claim": 0,
}


class TestExitCodes:
    @pytest.mark.parametrize("target", sorted(EXPECTED_EXIT))
    def test_per_target(self, capsys, target):
        code, out, _ = run_cli(capsys, "replicate", target)
        assert code == EXPECTED_EXIT[target]
        assert "summary:" in out

    def test_all_aggregates(self, capsys):
        code, out, _ = run_cli(capsys, "replicate", "all")
        assert code == 1
        summary_line = out.strip().splitlines()[-1]
        assert "83 records" in summary_line
        assert "9 discrepancies" in summary_line

    def test_invalid_inputs(self, capsys):
        assert run_cli(capsys, "replicate", "double-conic", "--r", "0")[0] == 2
        assert run_cli(capsys, "replicate", "graded", "--r", "-3")[0] == 2
        assert (
            run_cli(capsys, "replicate", "graded", "--points", "1:0,0:1")[0] == 2
        )
        assert (
            run_cli(capsys, "replicate", "koszul", "--json", "/nonexistent/x.json")[0]
            == 2
        )

    def test_argparse_rejections(self, capsys):
        for argv in (
            ["replicate", "bogus"],
            ["replicate", "graded", "--window", "5..3"],
            ["replicate", "graded", "--r", "two"],
            ["replicate", "graded", "--template", "guessed"],
            ["replicate", "graded", "--points", "1:0,0:0"],
        ):
            with pytest.raises(SystemExit) as exc:
                parse_args(argv)
            assert exc.value.code == 2
        capsys.readouterr()


def exit_code(capsys, *argv) -> int:
    """main's return value, or the code of the SystemExit its parser raises."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    return code


class TestFaultInjection:
    @pytest.mark.parametrize(
        "error",
        [
            AssertionError("slice monomial fell outside the basis"),
            GradedCertificateError("fiberwise exactness fails at (1, 0)"),
            KeyError("missing"),
        ],
    )
    def test_engine_failures_exit_3(self, capsys, monkeypatch, error):
        def failing(args):
            raise error

        monkeypatch.setitem(RUNNERS, "graded", failing)
        code, out, err = run_cli(capsys, "replicate", "graded")
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        if not isinstance(error, GradedCertificateError):
            assert err.startswith("internal error: ")

    @pytest.mark.parametrize(
        "argv, message, break_site",
        [
            (
                ("double-plane",),
                "do not reproduce the target",
                # the Chern solve no longer reproduces its target; its cache is
                # emptied so the solve runs again instead of returning a result
                lambda mp: (
                    structures.solve_chern_from_hilbert.cache_clear(),
                    mp.setattr(structures, "chi_template", lambda *args: MultiPoly.zero()),
                ),
            ),
            (
                ("wedge",),
                "must be a line bundle",
                # wedge^3 comes out with a second Chern class; the wedge powers are
                # cached per bundle, so the cache is emptied and the derivation runs
                lambda mp: (
                    chow.wedge_powers.cache_clear(),
                    mp.setattr(
                        chow,
                        "chern_from_character",
                        lambda ch, rank, n, f=chow.chern_from_character: [
                            *f(ch, rank, n),
                            var("c2"),
                        ],
                    ),
                ),
            ),
            (
                ("wedge",),
                "must equal c1",
                # wedge^3 comes out with the wrong first Chern class (cache emptied as above)
                lambda mp: (
                    chow.wedge_powers.cache_clear(),
                    mp.setattr(
                        chow,
                        "chern_from_character",
                        lambda ch, rank, n, f=chow.chern_from_character: [
                            f(ch, rank, n)[0] + 1,
                            *f(ch, rank, n)[1:],
                        ],
                    ),
                ),
            ),
            (
                ("koszul",),
                "degree <= 2",
                # a rank-3 "wedge^3" leaves a t^5 term in the Koszul sum; the
                # characteristic is cached per bundle, so that cache is emptied
                lambda mp: (
                    chow.koszul_euler.cache_clear(),
                    mp.setattr(chow, "wedge_powers", lambda bundle: (bundle, bundle)),
                ),
            ),
            (
                ("double-conic", "--r", "1"),
                "missing injectivity certificate",
                # the tangent computation is run without its certificate
                lambda mp: mp.setattr(
                    cli,
                    "tangent_dimension_double_conic",
                    lambda sides, assumption, certified, f=cli.tangent_dimension_double_conic: f(
                        sides, assumption, False
                    ),
                ),
            ),
        ],
        ids=["chern-solve", "wedge3-rank", "wedge3-c1", "koszul-degree", "certificate"],
    )
    def test_self_check_failures_exit_3(self, capsys, monkeypatch, argv, message, break_site):
        break_site(monkeypatch)
        code, out, err = run_cli(capsys, "replicate", *argv)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("internal inconsistency: ")
        assert message in err

    def test_failure_inside_all_exits_3(self, capsys, monkeypatch):
        def failing(args):
            raise AssertionError("forced")

        monkeypatch.setitem(RUNNERS, "expansion", failing)
        assert run_cli(capsys, "replicate", "all")[0] == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("replicate", "graded", "--r", "two"),
            ("replicate", "graded", "--r", str(R_CAP + 1)),
            ("replicate", "graded", "--r", "-3"),
            ("replicate", "double-conic", "--r", "0"),
            ("replicate", "ext-claim", "--window=-3..0"),
            ("replicate", "ext-claim", "--window=-2..-1"),
        ],
    )
    def test_bad_r_exits_2(self, capsys, argv):
        assert exit_code(capsys, *argv) == 2

    @pytest.mark.parametrize(
        "argv, seed, message",
        [
            # from the flags
            (("all", "--r", "0"), None, "invalid input: the double-conic family needs r >= 1"),
            (("all", "--window=-3..0"), None, "invalid input: r must be a nonnegative integer"),
            (("double-conic", "--window=-1..2"), None, "invalid input: r must be a nonnegative integer"),
            (("graded", "--r", "-3"), None, "invalid input: graded complexes need r >= 0"),
            (("graded", "--window=-1..2"), None, "invalid input: graded complexes need r >= 0"),
            (("ext-claim", "--window=-2..-1"), None, "invalid input: the vanishing claim is stated for r >= 0"),
            (("ext-claim", "--r", "-1"), None, "invalid input: the vanishing claim is stated for r >= 0"),
            # from the environment, for every target
            (("all",), "abc", "invalid input: MULTISTRUCT_SEED must read [-]digits"),
            (("graded",), " 7 ", "invalid input: MULTISTRUCT_SEED must read [-]digits"),
            # from the points grammar
            (("all", "--points", "1:0,0:1"), None, "invalid input: need at least five sample points"),
            (("graded", "--points", "1e5:1,0:1,1:1,1:2,2:1"), None, "--points coordinates must read p or p/q"),
        ],
    )
    def test_bad_input_enters_no_runner(self, capsys, monkeypatch, argv, seed, message):
        def entered(args):
            raise AssertionError("a runner was entered")

        for target in RUNNERS:
            monkeypatch.setitem(RUNNERS, target, entered)
        if seed is not None:
            monkeypatch.setenv("MULTISTRUCT_SEED", seed)
        try:
            code = main(["replicate", *argv])
        except SystemExit as exc:  # the parser rejects a malformed coordinate itself
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err


class TestSeed:
    """MULTISTRUCT_SEED is read once, in main, before any runner."""

    @pytest.mark.parametrize(
        "text, seed",
        [
            ("0", 0),
            ("844259548", 844259548),
            ("-7", -7),
            ("007", 7),
            ("9" * 18, 10**18 - 1),
            ("-" + "9" * 18, 1 - 10**18),
            ("", 0),  # set but empty reads as unset
        ],
    )
    def test_accepted(self, monkeypatch, text, seed):
        monkeypatch.setenv("MULTISTRUCT_SEED", text)
        assert cli._read_seed() == seed

    def test_unset_and_empty_agree(self, capsys, monkeypatch, tmp_path):
        reports = []
        for text in (None, "", "0"):
            if text is None:
                monkeypatch.delenv("MULTISTRUCT_SEED", raising=False)
            else:
                monkeypatch.setenv("MULTISTRUCT_SEED", text)
            path = tmp_path / f"wedge-{len(reports)}.json"
            assert exit_code(capsys, "replicate", "wedge", "--json", str(path)) == EXPECTED_EXIT["wedge"]
            records = json.loads(path.read_text())["records"]
            reports.append([rec for rec in records if rec["claim_id"] == "wedge/split-agreement"])
        assert reports[0] == reports[1] == reports[2]
        assert reports[0][0]["notes"] == "pairwise-sum oracle, seed 0"

    @pytest.mark.parametrize(
        "text",
        ["abc", " 7 ", "7 ", "1_000", "+7", "1e3", "--1", "-", "9" * 19, "\u0663", "7\n"],
    )
    def test_rejected_naming_the_variable(self, capsys, monkeypatch, text):
        monkeypatch.setenv("MULTISTRUCT_SEED", text)
        with pytest.raises(ValueError, match="MULTISTRUCT_SEED"):
            cli._read_seed()
        code, out, err = run_cli(capsys, "replicate", "ext-claim")
        assert (code, out) == (2, "")
        assert err.startswith("invalid input: MULTISTRUCT_SEED must read [-]digits with at most 18 digits")


class TestParameterCap:
    def test_cap_admits_the_defaults_and_benchmark(self):
        args = parse_args(["replicate", "graded", "--r", "16"])
        assert args.r == 16
        assert parse_args(["replicate", "graded"]).window == range(0, 7)

    def test_at_the_cap(self, capsys):
        assert parse_args(["replicate", "ext-claim", "--r", str(R_CAP)]).r == R_CAP
        assert parse_args(["replicate", "ext-claim", f"--r={-R_CAP}"]).r == -R_CAP
        window = parse_args(["replicate", "ext-claim", f"--window={-R_CAP}..{R_CAP}"]).window
        assert window == range(-R_CAP, R_CAP + 1)
        assert exit_code(capsys, "replicate", "ext-claim", "--r", str(R_CAP)) == 0

    @pytest.mark.parametrize(
        "flag",
        [
            f"--r={R_CAP + 1}",
            f"--r={-R_CAP - 1}",
            f"--window=0..{R_CAP + 1}",
            f"--window={-R_CAP - 1}..0",
        ],
    )
    def test_one_past_the_cap(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["replicate", "ext-claim", flag])
        assert exc.value.code == 2
        assert f"-{R_CAP}..{R_CAP}" in capsys.readouterr().err

    def test_graded_at_the_cap_in_a_fresh_process(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from multistruct.cli import main; sys.exit(main())",
             "replicate", "graded", "--r", str(R_CAP)],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        for pair in ("monomial", "dense"):
            assert f"[ ok ] graded/splitting[r={R_CAP},{pair}] (n/a): ({R_CAP - 4}, {R_CAP - 2})" in lines
        assert lines[-1] == "summary: 3 records, 3 matched, 0 discrepancies"


class TestEchoedInput:
    """An error message quotes at most 40 characters of a rejected value."""

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--r", "9" * 1000),
            ("--r", "x" * 1000),
            ("--window", "9" * 1000),
            ("--window", "0.." + "9" * 997),
            ("--window", "0..x" + "9" * 996),
            ("--points", "9" * 1000),
            ("--points", "x" * 998 + ":1"),
            ("--points", ",".join(["9" * 100 + "/" + "0" * 100 + ":1"] * 4) + ",1:1" * 47),
            ("--template", "x" * 1000),
        ],
        ids=["r-cap", "r-text", "window-sep", "window-cap", "window-int", "points-pair",
             "points-coordinate", "points-zero-denominator", "template-choice"],
    )
    def test_long_value_gives_a_short_error_line(self, capsys, flag, value):
        assert len(value) >= 1000
        with pytest.raises(SystemExit) as exc:
            main(["replicate", "graded", f"{flag}={value}"])
        assert exc.value.code == 2
        line = capsys.readouterr().err.splitlines()[-1]
        assert line.startswith(f"multistruct replicate: error: argument {flag}: ")
        assert len(line.encode()) < 200

    def test_long_target_gives_a_short_error_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["replicate", "x" * 1000])
        assert exc.value.code == 2
        line = capsys.readouterr().err.splitlines()[-1]
        assert line.startswith("multistruct replicate: error: argument target: invalid choice: ")
        assert len(line.encode()) < 200

    @pytest.mark.parametrize(
        "argv, start",
        [
            (["x" * 1000], "multistruct: error: argument command: invalid choice: "),
            (
                ["replicate", "ext-claim", "x" * 1000, "--" + "y" * 1000],
                "multistruct: error: unrecognized arguments: ",
            ),
        ],
        ids=["command", "unrecognized"],
    )
    def test_long_word_gives_a_short_error_line(self, capsys, argv, start):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        line = capsys.readouterr().err.splitlines()[-1]
        assert line.startswith(start)
        assert len(line.encode()) < 200


USAGE = "usage: multistruct [-h] {replicate} ...\n"
HELP = USAGE + """
Exact replication driver for the multiple-structure computations.

positional arguments:
  {replicate}
    replicate  re-run a computation chain and compare

options:
  -h, --help   show this help message and exit
"""
TARGET_CHOICES = (
    "{double-conic,double-plane,triple-plane,wedge,koszul,expansion,congruence,graded,ext-claim,all}"
)
REPLICATE_USAGE = f"""usage: multistruct replicate [-h] [--r R] [--template {{paper,derived,both}}]
                             [--points POINTS] [--json JSON_PATH]
                             [--window WINDOW]
                             {TARGET_CHOICES}
"""
REPLICATE_HELP = REPLICATE_USAGE + f"""
positional arguments:
  {TARGET_CHOICES}

options:
  -h, --help            show this help message and exit
  --r R                 integer value in -32..32, or 'sym'
  --template {{paper,derived,both}}
                        which chi template drives the template-dependent
                        chains
  --points POINTS       s:u pairs, comma separated, each coordinate p or p/q;
                        each pair is read as the coprime integers of the point
                        [s:u]
  --json JSON_PATH      write the JSON report here
  --window WINDOW       a..b parameter window, bounds in -32..32
"""


def _usage_error(message: str) -> str:
    return f"{USAGE}multistruct: error: {message}\n"


def _replicate_error(message: str) -> str:
    return f"{REPLICATE_USAGE}multistruct replicate: error: {message}\n"


def _ext_claim_out(*r_values, symbolic: bool = True) -> str:
    lines = ["[ ok ] ext-claim/vanishing[symbolic] (n/a): 0"] if symbolic else []
    lines += [f"[ ok ] ext-claim/vanishing[r={rv}] (n/a): 0" for rv in r_values]
    count = len(lines)
    return "\n".join([*lines, f"summary: {count} records, {count} matched, 0 discrepancies"]) + "\n"


# (argv, exit code, stdout, stderr); the help texts are argparse's at 80 columns
COMMAND_LINES = [
    ([], 2, "", _usage_error("the following arguments are required: command")),
    (["--help"], 0, HELP, ""),
    (["-h", "replicate"], 0, HELP, ""),
    (["replicat"], 2, "", _usage_error("argument command: invalid choice: 'replicat' (choose from 'replicate')")),
    (["--bogus", "replicate", "ext-claim"], 2, "", _usage_error("unrecognized arguments: --bogus")),
    (["replicate"], 2, "", _replicate_error("the following arguments are required: target")),
    (["replicate", "--help"], 0, REPLICATE_HELP, ""),
    (["replicate", "ext-claim", "--help", "--r", "99"], 0, REPLICATE_HELP, ""),
    (
        ["replicate", "ext-claim", "--r", "99", "--help"], 2, "",
        _replicate_error("argument --r: --r values must lie in -32..32, got 99"),
    ),
    (["replicate", "ext-claim", "--r"], 2, "", _replicate_error("argument --r: expected one argument")),
    (["replicate", "--json"], 2, "", _replicate_error("argument --json: expected one argument")),
    (
        ["replicate", "ext-claim", "--window", "-2..3"], 2, "",
        _replicate_error("argument --window: expected one argument"),
    ),
    (["replicate", "ext-claim", "--r", "-3"], 2, "", "invalid input: the vanishing claim is stated for r >= 0\n"),
    (
        ["replicate", "ext-claim", "--r", "-.5"], 2, "",
        _replicate_error("argument --r: --r expects an integer or 'sym', got '-.5'"),
    ),
    (
        ["replicate", "ext-claim", "--r="], 2, "",
        _replicate_error("argument --r: --r expects an integer or 'sym', got ''"),
    ),
    (["replicate", "-r", "3", "ext-claim"], 2, "", _replicate_error("argument target: invalid choice: '3'")),
    (["replicate", "ext-claim", "x", "y"], 2, "", _usage_error("unrecognized arguments: x y")),
    (["replicate", "bogus", "--r", "99"], 2, "", _replicate_error("argument target: invalid choice: 'bogus'")),
    (
        ["replicate", "--r", "99", "bogus"], 2, "",
        _replicate_error("argument --r: --r values must lie in -32..32, got 99"),
    ),
    (["replicate", "ext-claim", "--w", "0..2"], 0, _ext_claim_out(0, 1, 2), ""),
    (["replicate", "ext-claim", "--temp", "paper"], 0, _ext_claim_out(*range(7)), ""),
    (["replicate", "--", "ext-claim"], 0, _ext_claim_out(*range(7)), ""),
    (["replicate", "ext-claim", "--r", "3", "--r", "4"], 0, _ext_claim_out(4, symbolic=False), ""),
    (
        ["replicate", "ext-claim", "--points", "-1:1, 0:1"], 2, "",
        "invalid input: need at least five sample points\n",
    ),
]


class TestCommandLine:
    """Exit code, stdout and stderr of each command line, help texts at 80 columns."""

    @pytest.mark.parametrize(
        "argv, code, out, err", COMMAND_LINES, ids=[" ".join(row[0]) or "none" for row in COMMAND_LINES]
    )
    def test_output(self, capsys, monkeypatch, argv, code, out, err):
        monkeypatch.setenv("COLUMNS", "80")
        try:
            got = main(list(argv))
        except SystemExit as exc:
            got = exc.code
        assert (got, *capsys.readouterr()) == (code, out, err)


def _benchmark_points(seed: int) -> str:
    spec = importlib.util.spec_from_file_location("replbench_run", ROOT / "replbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.workload_inputs(seed)[1]


class TestPointsBound:
    @pytest.mark.parametrize(
        "points",
        [
            "1:0,0:1,1:1,2:1,1:2",
            "1:0,0:1,1:1,2:3,-1/2:5",
            *(_benchmark_points(seed) for seed in (101, 102, 103)),
            f"-{'9' * POINT_DIGITS_CAP}/7:1,0:1,1:1,1:-1,2:3",
        ],
    )
    def test_printed_fractions_are_accepted(self, points):
        # each s:u is read as the coprime integers of the point [s:u], signs kept
        parsed = parse_args(["replicate", "graded", f"--points={points}"]).points
        given = [tuple(Fraction(x) for x in chunk.split(":")) for chunk in points.split(",")]
        assert len(parsed) == len(given)
        for (s, u), (s_q, u_q) in zip(parsed, given):
            assert type(s) is int and type(u) is int and math.gcd(s, u) == 1
            scale = Fraction(s, s_q) if s_q else Fraction(u, u_q)
            assert scale > 0 and (s, u) == (s_q * scale, u_q * scale)

    @pytest.mark.parametrize(
        "coordinate",
        [
            "1e100000",
            "1" + "0" * POINT_DIGITS_CAP,
            "1/" + "7" * (POINT_DIGITS_CAP + 1),
            "1.5",
            "+1",
            "1 ",
        ],
    )
    def test_other_coordinates_exit_2_at_once(self, capsys, coordinate):
        started = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["replicate", "graded", "--r", str(R_CAP), f"--points={coordinate}:1,0:1,1:1,1:-1,2:3"])
        assert exc.value.code == 2
        assert f"at most {POINT_DIGITS_CAP} digits" in capsys.readouterr().err
        assert time.perf_counter() - started < 1

    def test_count_at_the_cap_is_accepted(self, capsys):
        points = ",".join(f"{k}:1" for k in range(POINTS_CAP))
        parsed = parse_args(["replicate", "graded", f"--points={points}"]).points
        assert len(parsed) == POINTS_CAP
        assert exit_code(capsys, "replicate", "graded", "--r", "0", f"--points={points}") == 0

    def test_one_past_the_count_cap_exits_2_before_any_coordinate(self, capsys, monkeypatch):
        def no_coordinate(*args):
            raise AssertionError("a coordinate was parsed")

        monkeypatch.setattr(cli, "_coordinate", no_coordinate)
        points = ",".join(f"{k}:1" for k in range(POINTS_CAP + 1))
        with pytest.raises(SystemExit) as exc:
            main(["replicate", "graded", f"--points={points}"])
        assert exc.value.code == 2
        assert f"at most {POINTS_CAP} points, got {POINTS_CAP + 1}" in capsys.readouterr().err


class TestRecords:
    def test_record_structure(self, capsys):
        code, out, _ = run_cli(capsys, "replicate", "koszul")
        assert "[ ok ] koszul/t2-coefficient" in out
        assert "[DIFF] koszul/constant-term" in out

    def test_diff_lines_show_published_value(self, capsys):
        _, out, _ = run_cli(capsys, "replicate", "wedge")
        diff = next(line for line in out.splitlines() if "lambda2-c1" in line)
        assert "[published: 3*c1]" in diff
        assert "2*c1" in diff

    def test_template_flag_filters(self, capsys):
        _, out, _ = run_cli(capsys, "replicate", "expansion", "--template", "paper")
        assert "(derived)" not in out
        _, out, _ = run_cli(capsys, "replicate", "expansion", "--template", "derived")
        assert "(paper)" not in out
        code, _, _ = run_cli(capsys, "replicate", "expansion", "--template", "derived")
        assert code == 0  # no published counterpart records to disagree with

    def test_expansion_sign_slip_note_only_on_negations(self, monkeypatch, tmp_path):
        from multistruct import cli

        printed = cli._printed_expansion()
        wrong = list(printed)
        wrong[2] = printed[2] + 1  # neither the computed value nor its negative
        monkeypatch.setattr(cli, "_printed_expansion", lambda: wrong)
        path = tmp_path / "expansion.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["replicate", "expansion", "--template", "paper", "--json", str(path)])
        assert code == 1
        notes = {
            r["claim_id"]: r["notes"]
            for r in json.loads(path.read_text())["records"]
            if r["claim_id"].startswith("expansion/C(")
        }
        assert notes["expansion/C(t+2,2)"] == "published coefficient differs from the computed one"
        assert notes["expansion/C(t+5,5)"] == ""
        for i in (0, 1, 3, 4):
            assert "sign slip" in notes[f"expansion/C(t+{i},{i})"]

    def test_congruence_template_verdicts(self, capsys):
        _, out, _ = run_cli(capsys, "replicate", "congruence")
        assert "congruence/double-plane-verdict (paper): nonexistence" in out
        assert "congruence/double-plane-verdict (derived): exists-candidate" in out
        assert "congruence/triple-plane-verdict (derived): exists-candidate" in out

    def test_fixed_r_mode(self, capsys):
        code, out, _ = run_cli(capsys, "replicate", "double-conic", "--r", "2")
        assert code == 1
        assert "tangent-dimension (n/a): 19" in out

    @staticmethod
    def _double_conic_values(tmp_path, r: str) -> dict[str, tuple[str, str]]:
        path = tmp_path / f"double-conic-{r}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            main(["replicate", "double-conic", "--r", r, "--window", "1..1", "--json", str(path)])
        return {
            rec["claim_id"]: (rec["paper_value"], rec["computed_value"])
            for rec in json.loads(path.read_text())["records"]
            if rec["claim_id"].startswith("double-conic/h[")
            or rec["claim_id"] == "double-conic/tangent-dimension"
        }

    def test_fixed_r_records_evaluate_the_symbolic_forms(self, tmp_path):
        symbolic = self._double_conic_values(tmp_path, "sym")
        assert len(symbolic) == 7

        def at(text: str, rv: int) -> str:
            forms = text.strip("()").split(", ")
            polys = [parse_poly(re.sub(r"(\d)r", r"\1*r", f)) for f in forms]
            values = [str(as_fraction(p.substitute({"r": rv}))) for p in polys]
            return f"({', '.join(values)})" if text.startswith("(") else values[0]

        for rv in range(1, 7):
            fixed = self._double_conic_values(tmp_path, str(rv))
            assert fixed == {
                claim: (at(paper, rv), at(computed, rv))
                for claim, (paper, computed) in symbolic.items()
            }

    def test_window_flag(self, capsys):
        _, out, _ = run_cli(capsys, "replicate", "ext-claim", "--window", "0..2")
        assert "vanishing[r=2]" in out
        assert "vanishing[r=3]" not in out

    @pytest.mark.parametrize("target", ["double-conic", "graded", "ext-claim"])
    def test_fixed_r_replaces_the_window(self, capsys, target):
        # --r runs that one value; without it the window's values run
        _, out, _ = run_cli(capsys, "replicate", target, "--r", "3", "--window", "1..2")
        assert set(re.findall(r"\[r=(\d+)", out)) == {"3"}
        _, out, _ = run_cli(capsys, "replicate", target, "--window", "1..2")
        assert set(re.findall(r"\[r=(\d+)", out)) == {"1", "2"}


def assert_report_schema(doc: dict) -> None:
    """The four top-level keys, the summary keys and the record keys, in order."""
    assert list(doc) == ["version", "timestamp", "records", "summary"]
    assert list(doc["summary"]) == ["total", "matched", "discrepancies"]
    assert doc["summary"]["total"] == len(doc["records"]) == 83
    for record in doc["records"]:
        assert list(record) == [
            "claim_id",
            "paper_value",
            "computed_value",
            "template",
            "match",
            "notes",
        ]
        assert record["template"] in ("paper", "derived", "n/a")
        assert isinstance(record["match"], bool)


class TestJsonReport:
    def test_schema(self, full_report):
        code, doc = full_report
        assert code == 1
        assert_report_schema(doc)

    def test_record_keys_unique(self, full_report):
        _, doc = full_report
        keys = [(r["claim_id"], r["template"]) for r in doc["records"]]
        assert len(keys) == len(set(keys))

    def test_paper_value_semantics(self, full_report):
        _, doc = full_report
        records = {
            (r["claim_id"], r["template"]): r for r in doc["records"]
        }
        published = records["expansion/C(t+2,2)", "paper"]
        assert published["paper_value"] != "n/a"
        assert published["match"] is False
        assert "sign" in published["notes"]
        unpublished = records["expansion/C(t+2,2)", "derived"]
        assert unpublished["paper_value"] == "n/a"
        assert unpublished["match"] is True
        internal = records["wedge/split-agreement", "n/a"]
        assert internal["paper_value"] == "n/a"
        assert internal["match"] is True

    def test_determinism_excluding_timestamp(self, full_report, capsys, tmp_path):
        _, first = full_report
        path = tmp_path / "again.json"
        run_cli(capsys, "replicate", "all", "--json", str(path))
        second = json.loads(path.read_text())
        first = dict(first)
        first.pop("timestamp")
        second.pop("timestamp")
        assert first == second

    def test_example_report_regenerates(self, capsys, tmp_path):
        path = tmp_path / "koszul.json"
        run_cli(capsys, "replicate", "koszul", "--json", str(path))
        stamp = re.compile(r'"timestamp": "[^"]*"')
        assert stamp.sub("", path.read_text()) == stamp.sub("", EXAMPLE_REPORT.read_text())

    def test_report_json_counts(self):
        records = [
            ReplicationRecord("x", "1", "1", "n/a", True, ""),
            ReplicationRecord("y", "1", "2", "n/a", False, ""),
        ]
        doc = report_json(records)
        assert doc["summary"] == {"total": 2, "matched": 1, "discrepancies": 1}

    @pytest.mark.parametrize(
        "ns",
        [1_700_000_000_123_456_789, 1_700_000_000_000_000_999, 1_761_000_000_000_001_000, 0],
        ids=["microseconds", "microsecond-0", "leading-zeros", "epoch"],
    )
    def test_timestamp_is_the_datetime_isoformat(self, monkeypatch, ns):
        monkeypatch.setattr(time, "time_ns", lambda: ns)
        instant = datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(microseconds=ns // 1000)
        assert report_json([])["timestamp"] == instant.isoformat()


# The engine reads every rational as an int pair; these come only with Fraction.
RATIONAL_MODULES = ("fractions", "decimal", "numbers")

# The command line is read without argparse, which brings gettext and, once a
# parser is built, locale.
PARSER_MODULES = ("argparse", "gettext", "locale")

# Loaded only to build classes (dataclasses pulls in inspect, ast and dis), to
# write a report or to read report text back, with Fraction, or with argparse;
# a process that does none of these should not pay for them.
STARTUP_EXCLUDED = (
    "dataclasses", "inspect", "ast", "dis", "json", "datetime", "multistruct.grammar",
    *RATIONAL_MODULES, *PARSER_MODULES,
)


def _fresh_process(code: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )


class TestStartup:
    @staticmethod
    def _excluded_loaded_after(statement: str) -> set[str]:
        proc = _fresh_process(
            f"{statement}\nimport sys\nprint(*sorted(set({STARTUP_EXCLUDED!r}) & set(sys.modules)))"
        )
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    def test_import_loads_no_dataclasses_or_report_modules(self):
        # an interpreter whose own start-up loads one of them is not held against the package
        package = self._excluded_loaded_after("import multistruct.cli")
        assert package <= self._excluded_loaded_after("pass")

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["replicate", "all"], 1),
            (["replicate", "graded", "--points=1:0,0:1,1:1,2:3,-1/2:5"], 0),
            (["replicate", "wedge"], 1),
        ],
        ids=["all", "graded-points", "wedge"],
    )
    def test_runs_load_no_rational_modules(self, argv, code):
        # nor the parser modules: the command line is read in the same process
        proc = _fresh_process(
            "import sys\nfrom multistruct.cli import main\ncode = main(sys.argv[1:])\n"
            f"print('loaded:', *sorted(set({RATIONAL_MODULES + PARSER_MODULES!r}) & set(sys.modules)))\n"
            "sys.exit(code)",
            *argv,
        )
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.splitlines()[-1] == "loaded:"

    def test_report_loads_json_but_not_datetime(self, tmp_path):
        proc = _fresh_process(
            "import sys\nfrom multistruct.cli import main\ncode = main(sys.argv[1:])\n"
            "print('loaded:', *sorted({'json', 'datetime'} & set(sys.modules)))\nsys.exit(code)",
            "replicate", "koszul", "--json", str(tmp_path / "koszul.json"),
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout.splitlines()[-1] == "loaded: json"

    def test_report_is_still_written(self, tmp_path):
        path = tmp_path / "report.json"
        proc = _fresh_process(
            "import sys; from multistruct.cli import main; sys.exit(main())",
            "replicate", "all", "--json", str(path),
        )
        assert proc.returncode == 1, proc.stderr
        assert_report_schema(json.loads(path.read_text()))


# The entry the benchmark and the console script run: main() as the program.
PROGRAM = "import sys; from multistruct.cli import main; sys.exit(main())"


def _program(*argv: str, buffered: bool, **options) -> subprocess.CompletedProcess:
    """main() as the program in a fresh interpreter, its output as bytes.

    buffered removes PYTHONUNBUFFERED, so stdout to a pipe or file is
    block-buffered and reaches it only through main's own flush.  options
    go to subprocess.run: stdout and stderr (pipes by default), or a
    preexec_fn.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-c", PROGRAM, *argv],
        env=env, timeout=120, **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **options},
    )


class TestProgramExit:
    """main() as the program ends with os._exit after a flush; nothing it prints is lost."""

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [[target] for target in EXPECTED_EXIT] + [["all", "--json"]],
                             ids=[*EXPECTED_EXIT, "all-json"])
    def test_fresh_process_equals_in_process(self, capsys, tmp_path, argv, buffered):
        report = ["in.json"] if "--json" in argv else []
        code = main(["replicate", *argv, *(str(tmp_path / name) for name in report)])
        out, err = capsys.readouterr()
        fresh = report and ["fresh.json"]
        proc = _program("replicate", *argv, *(str(tmp_path / name) for name in fresh), buffered=buffered)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
        for name in report + fresh:
            assert_report_schema(json.loads((tmp_path / name).read_text()))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_unwritable_stdout_exits_2(self, buffered):
        # unbuffered, print fails; buffered, the final flush does
        with open("/dev/full", "wb") as full:
            proc = _program("replicate", "ext-claim", buffered=buffered, stdout=full)
        assert proc.returncode == 2
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1 and "Traceback" not in proc.stderr.decode()
        assert lines[0].startswith("invalid input: cannot write output: ")

    @pytest.mark.parametrize("closed", [1, 2], ids=["stdout", "stderr"])
    def test_closed_stream_keeps_the_exit_code(self, capsys, closed):
        # a stream closed at start-up is None in sys, and print to it writes nothing
        code = main(["replicate", "ext-claim"])
        expected = capsys.readouterr()[2 - closed].encode()  # the stream left open
        proc = subprocess.run(
            [sys.executable, "-c", PROGRAM, "replicate", "ext-claim"],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, preexec_fn=lambda: os.close(closed), timeout=120,
        )
        assert (proc.returncode, (proc.stdout, proc.stderr)[2 - closed]) == (code, expected)

    def test_failed_write_in_process_exits_2(self, capsys, monkeypatch):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(["replicate", "ext-claim"]) == 2
        assert capsys.readouterr().err == "invalid input: cannot write output: [Errno 32] Broken pipe\n"


def _stream_case(name: str, argv: list[str], stdout: str, stderr: str):
    """One command line with its streams: "pipe", "full" (/dev/full) or "closed".

    A stream closed before the interpreter starts is None in sys.  Runs
    with a full stream are block-buffered, where a write that failed stays
    in the buffer and the interpreter's teardown would flush it once more
    (exit 120); runs with stderr closed are unbuffered, so that a
    diagnostic sent to stdout instead reaches it at once.
    """
    full = "full" in (stdout, stderr)
    marks = pytest.mark.skipif(full and not os.path.exists("/dev/full"), reason="needs /dev/full")
    return pytest.param(argv, stdout, stderr, full, marks=marks, id=name)


STREAM_FAILURES = [
    _stream_case("usage-error-stderr-full", ["replicate", "bogus"], "pipe", "full"),
    _stream_case("window-past-cap-stderr-full", ["replicate", "all", "--window", "0..40"], "pipe", "full"),
    _stream_case("both-full", ["replicate", "ext-claim"], "full", "full"),
    _stream_case("report-unwritable-stderr-full", ["replicate", "ext-claim", "--json", "/nonexistent/x.json"],
                 "pipe", "full"),
    _stream_case("help-stdout-full", ["--help"], "full", "pipe"),
    _stream_case("replicate-help-stdout-full", ["replicate", "--help"], "full", "pipe"),
    _stream_case("usage-error-stderr-closed", ["replicate", "bogus"], "pipe", "closed"),
    _stream_case("bad-r-stderr-closed", ["replicate", "graded", "--r", "-3"], "pipe", "closed"),
    _stream_case("report-unwritable-stderr-closed", ["replicate", "ext-claim", "--json", "/nonexistent/x.json"],
                 "pipe", "closed"),
]

_RECORD_LINE = re.compile(r"\[( ok |DIFF)\] |summary: ")


class TestOneExitPath:
    """No stream failure changes the exit code, and no diagnostic goes to stdout."""

    @pytest.mark.parametrize("argv, stdout, stderr, buffered", STREAM_FAILURES)
    def test_stream_failure_keeps_the_exit_code(self, argv, stdout, stderr, buffered):
        with contextlib.ExitStack() as stack:
            options = {
                name: stack.enter_context(open("/dev/full", "wb"))
                for name, kind in (("stdout", stdout), ("stderr", stderr))
                if kind == "full"
            }
            if stderr == "closed":
                options["preexec_fn"] = lambda: os.close(2)
            proc = _program(*argv, buffered=buffered, **options)
        assert proc.returncode == 2
        out, err = (stream.decode() if stream else "" for stream in (proc.stdout, proc.stderr))
        assert "Traceback" not in out + err
        # stdout holds the records or nothing, never a diagnostic
        assert all(_RECORD_LINE.match(line) for line in out.splitlines())
        if stderr == "pipe":
            assert err.startswith("invalid input: cannot write output: ") and err.count("\n") == 1

    def test_only_the_two_writers_name_the_streams(self):
        tree = ast.parse((ROOT / "src" / "multistruct" / "cli.py").read_text(encoding="utf-8"))
        writers = set()
        for definition in tree.body:
            for node in ast.walk(definition):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    assert node.func.id != "print", f"print call on line {node.lineno}"
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in ("stdout", "stderr")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "sys"
                ):
                    writers.add(getattr(definition, "name", f"line {node.lineno}"))
        assert writers == {"_to_stdout", "_to_stderr"}


def _computed_value(call: ast.Call) -> ast.expr | None:
    """The computed_value argument of a ReplicationRecord(...) call."""
    if len(call.args) > 2:
        return call.args[2]
    return next((k.value for k in call.keywords if k.arg == "computed_value"), None)


class TestDerivedRecords:
    """Every computed value is computed, and the symbolic double-conic records rest on a certificate."""

    def test_no_record_restates_its_computed_value(self):
        # a bare string constant as the computed value cannot disagree with the
        # engine; the one exception is the injective record, whose loop body
        # first calls injectivity_certificate, which raises on failure
        tree = ast.parse((ROOT / "src" / "multistruct" / "cli.py").read_text(encoding="utf-8"))
        guarded = set()
        for loop in ast.walk(tree):
            if isinstance(loop, ast.For) and any(
                isinstance(node, ast.Name) and node.id == "injectivity_certificate"
                for statement in loop.body[:1]
                for node in ast.walk(statement)
            ):
                guarded.update(id(node) for node in ast.walk(loop))
        literals = [
            (call.lineno, value.value, id(call) in guarded)
            for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "ReplicationRecord"
            and isinstance(value := _computed_value(call), ast.Constant)
        ]
        assert [(value, ok) for _, value, ok in literals] == [("injective", True)], literals

    def test_section_degree_record_is_derived(self, capsys):
        _, out, _ = run_cli(capsys, "replicate", "double-conic")
        line = next(line for line in out.splitlines() if "family-section-degrees" in line)
        assert line == (
            "[DIFF] double-conic/family-section-degrees (n/a): degrees r+2 and r+4"
            "  [published: degrees r+4 and r+3]"
        )

    @pytest.mark.parametrize("every_r", [True, False], ids=["window-certificate", "symbolic-certificate"])
    def test_twisted_target_with_sections_exits_3(self, capsys, monkeypatch, every_r):
        # every twist moved by 4, so beta's target after the -r-2 twist is O(-2) + O(0),
        # which has sections.  Moved for every r, the window certificate at r = 1 finds
        # it; moved in the symbolic reading only, symbolic_injectivity does.
        from multistruct import graded

        original = graded._twists

        def moved(r):
            if isinstance(r, int) and not every_r:
                return original(r)
            return tuple(tuple(a + 4 for a in part) for part in original(r))

        monkeypatch.setattr(graded, "_twists", moved)
        graded.certified_split.cache_clear()
        code, out, err = run_cli(capsys, "replicate", "double-conic", "--r", "1")
        assert (code, out) == (3, "")
        assert err == "internal inconsistency: twisted summand O(0) has sections; kernel map not injective\n"


class TestRunnersDirect:
    def test_every_target_has_runner(self):
        assert set(EXPECTED_EXIT) == set(RUNNERS)


class TestSolvedOnce:
    def test_cached_results_equal_fresh_ones(self):
        solve = structures.solve_chern_from_hilbert
        verdict = integrality.schwarzenberger_verdict
        for hilbert in (structures.hilbert_double_plane(), structures.hilbert_triple_plane()):
            for template in ("paper", "derived"):
                triple = solve(hilbert, template)
                assert triple == solve.__wrapped__(hilbert, template)
                assert solve(hilbert, template) is triple
                bundle = BundleClass(3, triple, 5)
                assert verdict(bundle) == verdict.__wrapped__(bundle)
                assert verdict(bundle) is verdict(BundleClass(3, triple, 5))

    def test_replicate_all_solves_each_input_once(self):
        structures.solve_chern_from_hilbert.cache_clear()
        integrality.schwarzenberger_verdict.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["replicate", "all"]) == 1
        assert structures.solve_chern_from_hilbert.cache_info().misses == 4
        assert integrality.schwarzenberger_verdict.cache_info().misses == 5

    @pytest.mark.parametrize("r", ["sym", "3"])
    def test_double_conic_solves_each_sequence_once(self, monkeypatch, r):
        solved = []

        def counted(*args, solve=cohomology.solve_exact_sequence, **kwargs):
            solved.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cohomology, "solve_exact_sequence", counted)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["replicate", "double-conic", "--r", r]) == 1
        assert len(solved) == 3  # the two auxiliary sequences, then the main one


class TestTracedLayers:
    def test_every_benchmark_layer_is_found_and_called(self, tmp_path):
        # the benchmark's tracer reports a renamed layer on stderr and then counts it as 0 calls
        spec = importlib.util.spec_from_file_location("layertrace", ROOT / "replbench" / "layertrace.py")
        layertrace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layertrace)
        out = tmp_path / "trace.json"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "replbench" / "layertrace.py"), str(out), "replicate", "all"],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (1, "")
        layers = json.loads(out.read_text())["layers"]
        calls = {name: layers.get(name, {}).get("calls", 0) for name, _, _ in layertrace.LAYERS}
        assert all(calls.values()), calls
        assert calls["cohomology.solve_exact_sequence"] == 3


_PIPELINE = ("wedge_powers", "koszul_euler", "euler_characteristic")


def _count_calls(argv: list[str]) -> dict[str, int]:
    """Calls of the chow pipeline functions while main(argv) runs, by code object.

    A cached function counts the calls of the function it wraps, its cache misses.
    """
    codes = {inspect.unwrap(getattr(chow, name)).__code__: name for name in _PIPELINE}
    counts = dict.fromkeys(_PIPELINE, 0)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
    finally:
        sys.setprofile(previous)
    return counts


class TestSpecializedOracles:
    """The split-bundle oracles specialize the symbolic classes derived once per runner."""

    SYMBOLIC = BundleClass(3, (var("c1"), var("c2"), var("c3")), 5)

    @staticmethod
    def _run(monkeypatch, target: str) -> tuple[dict[str, ReplicationRecord], list[BundleClass]]:
        """The target's records and every bundle its runner specializes at, in call order."""
        bundles = []

        def recording(p, B, f=chow.specialize):
            bundles.append(B)
            return f(p, B)

        monkeypatch.setattr(cli, "specialize", recording)
        args = parse_args(["replicate", target])
        args.seed = cli._read_seed()  # as main reads it before any runner
        records = RUNNERS[target](args)
        return {rec.claim_id: rec for rec in records}, bundles

    # the default seed and the MULTISTRUCT_SEED values of the benchmark's seeds 101-103
    @pytest.mark.parametrize("seed", ["0", "844259548", "964632535", "243282985"])
    def test_wedge_equals_the_per_bundle_pipeline(self, monkeypatch, seed):
        monkeypatch.setenv("MULTISTRUCT_SEED", seed)
        records, bundles = self._run(monkeypatch, "wedge")
        assert records["wedge/split-agreement"].computed_value == "50/50 random split bundles agree"
        rng = random.Random(int(seed))
        drawn = [chow.split_bundle([rng.randint(-5, 5) for _ in range(3)], 5) for _ in range(50)]
        # four specializations per trial: the three lambda^2 classes and c1 of lambda^3
        assert bundles == [bundle for bundle in drawn for _ in range(4)]
        lam2, lam3 = chow.wedge_powers(self.SYMBOLIC)
        for bundle in drawn:
            w2, w3 = chow.wedge_powers(bundle)
            assert w2.chern == tuple(chow.specialize(c, bundle) for c in lam2.chern)
            assert w3.chern == (chow.specialize(lam3.chern[0], bundle),)

    def test_koszul_equals_the_per_bundle_pipeline(self, monkeypatch):
        records, bundles = self._run(monkeypatch, "koszul")
        assert records["koszul/ci-oracle"].computed_value == "10/10 degree triples agree"
        assert len(bundles) == 11  # ci[1,1,2] and the ten oracle triples
        symbolic = chow.koszul_euler(self.SYMBOLIC)
        for bundle in bundles:
            assert chow.koszul_euler(bundle) == chow.specialize(symbolic, bundle)

    @pytest.mark.parametrize("power", [2, 3])
    def test_a_wrong_symbolic_wedge_fails_the_oracle(self, monkeypatch, power):
        def skewed(B, f=chow.wedge_powers):
            lam2, lam3 = f(B)
            if power == 3:  # c1 + 1
                return lam2, BundleClass(1, (lam3.chern[0] + 1,), lam3.ambient_dim)
            c = lam2.chern  # c2 + 1
            return BundleClass(3, (c[0], c[1] + 1, c[2]), lam2.ambient_dim), lam3

        monkeypatch.setattr(cli, "wedge_powers", skewed)
        record = self._run(monkeypatch, "wedge")[0]["wedge/split-agreement"]
        assert int(record.computed_value.split("/")[0]) < 50
        assert record.match is False

    def test_a_wrong_symbolic_characteristic_fails_the_oracle(self, monkeypatch):
        monkeypatch.setattr(cli, "koszul_euler", lambda B, f=chow.koszul_euler: f(B) + 1)
        record = self._run(monkeypatch, "koszul")[0]["koszul/ci-oracle"]
        assert int(record.computed_value.split("/")[0]) < 10
        assert record.match is False

    def test_each_runner_derives_once(self):
        # with the caches emptied, as in a fresh process, run_wedge, splitting_oracle
        # and the koszul_euler inside it, or run_koszul, derive each class once
        for target in ("wedge", "koszul"):
            chow.wedge_powers.cache_clear()
            chow.koszul_euler.cache_clear()
            counts = _count_calls(["replicate", target])
            assert (counts["wedge_powers"], counts["koszul_euler"]) == (1, 1), target

    def test_replicate_all_counts_in_a_fresh_process(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json, test_cli; print(json.dumps(test_cli._count_calls(['replicate', 'all'])))"],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "wedge_powers": 1, "koszul_euler": 1, "euler_characteristic": 10
        }
