import argparse
import io
import json
import math
import random
import resource
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import assume, given, settings, strategies as st

from swhile import cli, montecarlo, smallstep
from swhile.cli import main
from swhile.parser import parse_file

from genprog import gen_program, gen_table
from progpath import PROGRAMS, ROOT, program_files, src_env


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_prints_normal_form(capsys):
    code, out, _ = run_cli(capsys, "parse", PROGRAMS / "positioning_exact.swl")
    assert code == 0
    assert out.startswith("variables: x, y, p, v")
    assert "p' = v, v' = 1.0" in out


def test_parse_json_ast(capsys):
    code, out, _ = run_cli(capsys, "parse", "--json", PROGRAMS / "timestop.swl")
    assert code == 0
    payload = json.loads(out)
    assert payload["variables"] == ["x"]
    assert payload["program"]["kind"] == "seq"


def test_parse_malformed_file_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.swl"
    bad.write_text("x := (")
    code, _, err = run_cli(capsys, "parse", bad)
    assert code == 1
    assert "1:" in err  # line:col diagnostic


def test_missing_file_is_io_error(capsys):
    code, _, err = run_cli(capsys, "run", "no_such_file.swl", "--time", "1")
    assert code == 4
    assert "no_such_file" in err


def test_unwritable_out_is_io_error_naming_the_write(tmp_path, capsys):
    # a failed --out write used to be reported as "cannot read PATH"
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "simulate", PROGRAMS / "ball.swl", "--grid", "0:1:0.5",
                             "--seed", "1", "--out", target)
    assert (code, out) == (4, "")
    assert str(target) in err and "cannot read" not in err


def test_run_walkthrough_time_stop(capsys):
    code, out, _ = run_cli(
        capsys, "run", PROGRAMS / "timestop.swl", "--time", "1.5", "--seed", "1"
    )
    assert code == 0
    assert "time-stop: x = 2.0" in out
    assert "steps: 7" in out


def test_run_at_time_zero_stops_with_initial_store(tmp_path, capsys):
    f = tmp_path / "wait.swl"
    f.write_text("x := 3 ; wait 1")
    code, out, _ = run_cli(capsys, "run", f, "--time", "0", "--seed", "1")
    assert code == 0
    assert "time-stop: x = 3.0" in out


def test_run_error_and_fuel_exit_codes(tmp_path, capsys):
    err_file = tmp_path / "err.swl"
    err_file.write_text("x := 1/0")
    code, out, _ = run_cli(capsys, "run", err_file, "--time", "1", "--seed", "1")
    assert code == 2
    assert "err" in out

    zeno = tmp_path / "zeno.swl"
    zeno.write_text("x := 0 ; while tt { x++ }")
    code, out, _ = run_cli(
        capsys, "run", zeno, "--time", "1", "--seed", "1", "--fuel", "100"
    )
    assert code == 3
    assert "out-of-fuel" in out


def test_run_trace_jsonl(capsys):
    code, out, _ = run_cli(
        capsys, "run", PROGRAMS / "timestop.swl",
        "--time", "1.5", "--seed", "1", "--trace", "--format", "json",
    )
    assert code == 0
    lines = out.strip().splitlines()
    chain = [json.loads(line) for line in lines[:-2]]
    assert len(chain) == 7
    assert chain[0]["t"] == 1.5
    assert all(set(c) == {"program", "store", "t", "entropy"} for c in chain)


def test_run_steps_same_with_and_without_trace(tmp_path, capsys):
    normal = tmp_path / "normal.swl"
    normal.write_text("x := 1 ; wait 0.5 ; x++")
    err = tmp_path / "err.swl"
    err.write_text("x := 1 ; wait 0.5 ; x := x / 0")
    for path, time in ((PROGRAMS / "timestop.swl", "7.5"), (normal, "2"), (err, "2")):
        args = ("run", path, "--time", time, "--seed", "1")
        code, plain, _ = run_cli(capsys, *args)
        traced_code, traced, _ = run_cli(capsys, *args, "--trace")
        assert code == traced_code
        steps = [line for line in plain.splitlines() if line.startswith("steps: ")]
        assert len(steps) == 1
        assert traced.splitlines()[-1] == steps[0]
        # the trace lists each stepped configuration once
        assert len(traced.splitlines()) - 2 == int(steps[0].split()[1])


def test_run_with_init_override(tmp_path, capsys):
    f = tmp_path / "free.swl"
    f.write_text("x := n + 1 ; wait 10")
    code, out, _ = run_cli(
        capsys, "run", f, "--time", "2", "--seed", "1", "--init", "n=41"
    )
    assert code == 0
    assert "x = 42.0" in out


def test_init_sets_a_variable_named_table(tmp_path, capsys):
    # make_store's table parameter used to take --init table=3 too: a TypeError
    f = tmp_path / "t.swl"
    f.write_text("table := table + 1 ; wait 1\n")
    code, out, _ = run_cli(capsys, "run", f, "--time", "2", "--seed", "1", "--init", "table=3")
    assert code == 0
    assert out.splitlines()[0] == "normal: table = 4.0 (remaining time 1.0)"


def test_simulate_ball_csv(tmp_path, capsys):
    out_file = tmp_path / "ball.csv"
    code, _, _ = run_cli(
        capsys, "simulate", PROGRAMS / "ball.swl",
        "--runs", "1", "--grid", "0:5:0.1", "--seed", "7", "--out", out_file,
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "run,t,p,v,d,status"
    assert len(lines) == 1 + 51


GOLDEN_SIMULATE = ROOT / "tests" / "golden" / "simulate"
SIMULATE_CASES = [line.split()
                  for line in (GOLDEN_SIMULATE / "cases.txt").read_text().splitlines()
                  if line and not line.startswith("#")]


def _golden_simulate(name, args):
    """The golden file of a case: its suffix is the case's --format."""
    fmt = args[args.index("--format") + 1] if "--format" in args else "csv"
    return (GOLDEN_SIMULATE / f"{name}.{fmt}").read_bytes()


@pytest.mark.parametrize("case", SIMULATE_CASES, ids=lambda case: case[0])
def test_simulate_matches_golden(case, capsys):
    # pins the bytes of the ensemble CSV and JSON (terminated, error and
    # diverged points included), a --check series, an --interval result and
    # a --hist, in both formats
    name, path, *args = case
    code, out, _ = run_cli(capsys, "simulate", ROOT / path, *args)
    assert code == 0
    assert out.encode() == _golden_simulate(name, args)


@pytest.mark.parametrize("case", SIMULATE_CASES, ids=lambda case: case[0])
def test_simulate_out_matches_golden(case, tmp_path, capsys):
    # --out writes the bytes that stdout gets
    name, path, *args = case
    target = tmp_path / name
    code, out, _ = run_cli(capsys, "simulate", ROOT / path, *args, "--out", target)
    assert code == 0 and out == ""
    assert target.read_bytes() == _golden_simulate(name, args)


GOLDEN_ADEQUACY = ROOT / "tests" / "golden" / "adequacy"


def _adequacy_cases(name):
    return [line.split() for line in (GOLDEN_ADEQUACY / name).read_text().splitlines()
            if line and not line.startswith("#")]


ADEQUACY_CASES = _adequacy_cases("cases.txt")
DEEP_ADEQUACY_CASES = _adequacy_cases("deep.txt")


@pytest.mark.parametrize("case", ADEQUACY_CASES + DEEP_ADEQUACY_CASES, ids=lambda case: case[0])
def test_adequacy_matches_golden(case, capsys, monkeypatch):
    # pins the JSON and the exit code, with and without --rational; the
    # output names the program by the relative path it was given.  The deep
    # cases reach what a walk over every draw sequence could not (see deep.txt).
    name, want, *args = case
    monkeypatch.chdir(ROOT)
    code, out, _ = run_cli(capsys, "adequacy", *args)
    assert code == int(want)
    assert out.encode() == (GOLDEN_ADEQUACY / f"{name}.json").read_bytes()


def test_adequacy_golden_cases_cover_every_bundled_program():
    modes = {}
    for _, _, path, *args in ADEQUACY_CASES:
        modes.setdefault(path, []).append(" ".join(args))
    assert sorted(modes) == [f"programs/{p.name}" for p in program_files()]
    assert all(m == ["--rational --time 0.5 --time 1.0 --time 1.5", "--k 2", "--rational --k 3"]
               for m in modes.values())


@pytest.mark.parametrize("program", program_files(), ids=lambda p: p.stem)
def test_adequacy_prints_the_same_with_and_without_rational(program, capsys):
    # weights are always exact: --rational is accepted and changes nothing,
    # and every check passes at tv exactly 0
    args = ("adequacy", program, "--k", "3", "--time", "1.0")
    code, out, _ = run_cli(capsys, *args)
    assert (code, out) == run_cli(capsys, *args, "--rational")[:2]
    payload = json.loads(out)
    assert code == 0 and payload["rational"] is True
    assert [check["tv"] for check in payload["checks"]] == [0.0]


def test_simulate_is_reproducible(capsys):
    args = ("simulate", PROGRAMS / "ball.swl", "--runs", "2", "--grid", "0:2:0.1", "--seed", "9")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_simulate_check_series(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", PROGRAMS / "cruise_exponential.swl",
        "--runs", "5", "--grid", "0:10:1", "--seed", "3", "--check", "pl <= p",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,fraction,excluded"
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[1] == "0.0"


def test_simulate_check_interval(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", PROGRAMS / "cruise_exponential.swl",
        "--runs", "5", "--grid", "0:10:1", "--seed", "3",
        "--check", "pl <= p", "--interval", "2", "8",
    )
    assert code == 0
    assert out.startswith("fraction,")


def test_simulate_histogram(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", PROGRAMS / "random_walk.swl",
        "--runs", "40", "--grid", "0:1:1", "--seed", "11",
        "--hist", "x@0.0", "--bins", "5",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    counts = [int(line.split(",")[2]) for line in lines[1:-1]]
    assert sum(counts) == 40


def test_simulate_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", PROGRAMS / "timestop.swl",
        "--runs", "1", "--grid", "0:2:1", "--seed", "5", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["variables"] == ["x"]
    assert len(payload["runs"]) == 1


@pytest.mark.parametrize("out", [None, "ens.csv"])
def test_simulate_csv_never_builds_the_json_payload(tmp_path, capsys, monkeypatch, out):
    def refuse(ensemble):
        raise AssertionError("ensemble_json called for --format csv")

    monkeypatch.setattr(montecarlo, "ensemble_json", refuse)
    target = () if out is None else ("--out", tmp_path / out)
    code, stdout, _ = run_cli(
        capsys, "simulate", PROGRAMS / "ball.swl",
        "--runs", "2", "--grid", "0:1:0.5", "--seed", "5", *target,
    )
    assert code == 0
    text = stdout if out is None else (tmp_path / out).read_text()
    assert text.splitlines()[0] == "run,t,p,v,d,status"
    assert len(text.splitlines()) == 1 + 2 * 3


def test_adequacy_walkthrough_passes(capsys):
    code, out, _ = run_cli(
        capsys, "adequacy", PROGRAMS / "timestop.swl",
        "--k", "2", "--unfold", "6", "--time", "1.5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["checks"][0]["tv"] == 0.0


def test_adequacy_bernoulli_rational(capsys):
    code, out, _ = run_cli(
        capsys, "adequacy", PROGRAMS / "bernoulli_choice.swl",
        "--k", "2", "--unfold", "3", "--time", "1", "--rational",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True


def test_adequacy_branch_cap_exit_code(tmp_path, capsys):
    f = tmp_path / "wide.swl"
    f.write_text("x := 0 ; while tt { x := unif(0,1) ; wait 0 }")
    code, out, _ = run_cli(
        capsys, "adequacy", f, "--k", "2", "--unfold", "30",
        "--time", "1", "--cap", "10",
    )
    assert code == 5
    assert "cap" in out


@pytest.mark.parametrize("cap, want", [("0", 1), ("-1", 1), ("5", 5)])
def test_adequacy_cap_below_one_is_a_diagnostic(capsys, cap, want):
    # --cap -1 used to exit 5 with "enumeration explored 1 branches, cap is -1"
    code, out, err = run_cli(capsys, "adequacy", PROGRAMS / "ball.swl", f"--cap={cap}", "--time", "1")
    assert code == want
    if want == 1:
        assert out == "" and err == "error: the branch cap must be at least 1\n"
    else:
        assert json.loads(out)["error"] == "enumeration explored 6 branches, cap is 5"


def test_bad_init_values_exit_cleanly(capsys):
    code, _, err = run_cli(
        capsys, "run", PROGRAMS / "timestop.swl", "--time", "1",
        "--seed", "1", "--init", "x=abc",
    )
    assert code == 1
    assert "not a number" in err
    code, _, err = run_cli(
        capsys, "run", PROGRAMS / "timestop.swl", "--time", "1",
        "--seed", "1", "--init", "nosuch=1",
    )
    assert code == 1


def test_negative_time_exits_cleanly(capsys):
    code, _, err = run_cli(
        capsys, "run", PROGRAMS / "timestop.swl", "--time", "-1", "--seed", "1"
    )
    assert code == 1
    assert "nonnegative" in err


def test_nan_time_exits_cleanly(capsys):
    # NaN < 0 is false, so a "t < 0" test let NaN through: run burned the
    # whole fuel budget and adequacy passed with empty supports
    code, _, err = run_cli(
        capsys, "run", PROGRAMS / "timestop.swl", "--time", "nan", "--seed", "1"
    )
    assert code == 1
    assert "error: remaining time must be nonnegative" in err
    code, out, err = run_cli(
        capsys, "adequacy", PROGRAMS / "timestop.swl", "--time", "nan", "--rational"
    )
    assert code == 1
    assert out == ""
    assert "error: remaining time must be nonnegative" in err


@pytest.mark.parametrize("unfold, support", [(900, 0), (1100, 1)])
def test_adequacy_on_a_loop_unfolded_past_the_recursion_limit(tmp_path, capsys, unfold, support):
    # 1001 rounds run the loop out: below that the approximant is the zero
    # measure on both sides, above it both put mass 1 on x = 1001
    f = tmp_path / "count.swl"
    f.write_text("x := 0 ; while x <= 1000 { x++ }")
    code, out, _ = run_cli(
        capsys, "adequacy", f, "--unfold", unfold, "--time", "1", "--rational"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    check = payload["checks"][0]
    assert check["operational_support"] == check["denotational_support"] == support


def test_histogram_time_off_grid_exits_cleanly(capsys):
    code, _, err = run_cli(
        capsys, "simulate", PROGRAMS / "timestop.swl", "--runs", "2",
        "--grid", "0:2:1", "--seed", "1", "--hist", "x@0.37",
    )
    assert code == 1


def test_histogram_time_matches_rounded_grid_time(capsys):
    # 0:1:0.1 holds 0.30000000000000004 and 0.7000000000000001, not 0.3 and 0.7
    for at, grid_time in (("0.3", 0.1 * 3), ("0.7", 0.1 * 7)):
        base = ("simulate", PROGRAMS / "ball.swl", "--grid", "0:1:0.1", "--runs", "3",
                "--seed", "1")
        code, typed, _ = run_cli(capsys, *base, "--hist", f"p@{at}")
        assert code == 0
        code, exact, _ = run_cli(capsys, *base, "--hist", f"p@{grid_time!r}")
        assert code == 0
        assert typed == exact
        assert typed.splitlines()[-1] == "excluded,,0"


def test_flow_flag_variants(capsys):
    for flow in ("exact", "rk4", "rk4:0.01", "auto"):
        code, out, _ = run_cli(
            capsys, "run", PROGRAMS / "timestop.swl",
            "--time", "1.5", "--seed", "1", "--flow", flow,
        )
        assert code == 0
        assert "x = 2.0" in out


@pytest.mark.parametrize("argv", [
    ("run", PROGRAMS / "ball.swl", "--time", "1", "--seed", "1"),
    ("simulate", PROGRAMS / "ball.swl", "--grid", "0:1:0.5", "--seed", "1"),
    ("adequacy", PROGRAMS / "ball.swl", "--time", "1"),
], ids=["run", "simulate", "adequacy"])
def test_an_unknown_flow_method_is_a_diagnostic(capsys, argv):
    # each subcommand used to end in an ArgumentTypeError traceback
    code, out, err = run_cli(capsys, *argv, "--flow", "bogus")
    assert (code, out, err) == (1, "", "error: unknown flow method 'bogus'\n")


@pytest.mark.parametrize("argv", [
    ("run", PROGRAMS / "ball.swl", "--seed", "1", "--time=--"),
    ("simulate", PROGRAMS / "ball.swl", "--grid", "0:1:0.5", "--seed", "1", "--flow=--"),
    ("adequacy", PROGRAMS / "ball.swl", "--time", "1", "--init=--"),
], ids=["run", "simulate", "adequacy"])
def test_a_double_dash_option_value_is_a_usage_error(capsys, argv):
    # argparse dropped the "--" and handed the option an empty list, which
    # ended in a TypeError or AttributeError traceback
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv])
    assert exc.value.code == 1
    option = argv[-1].partition("=")[0]
    assert capsys.readouterr().err.endswith(f"error: argument {option}: expected one argument\n")


def test_infinite_rk4_step_is_a_diagnostic(capsys):
    # used to exit 0 after one RK4 step per flow
    code, out, err = run_cli(capsys, "simulate", ROOT / "bench" / "pendulum.swl", "--runs", "2",
                             "--grid", "0:1:0.5", "--seed", "1", "--flow", "rk4:inf")
    assert code == 1
    assert out == "" and err == "error: RK4 step must be finite\n"


def test_simulate_parallel_output_matches_serial(capsys):
    base = ("simulate", PROGRAMS / "ctrw.swl", "--runs", "6",
            "--grid", "0:2:0.5", "--seed", "21")
    code1, serial, _ = run_cli(capsys, *base)
    code2, parallel, _ = run_cli(capsys, *base, "--parallel", "2")
    assert code1 == code2 == 0
    assert serial == parallel


def test_simulate_parallel_zero_exits_cleanly(capsys):
    code, out, err = run_cli(capsys, "simulate", PROGRAMS / "ctrw.swl", "--runs", "4",
                             "--grid", "0:2:0.5", "--seed", "21", "--parallel", "0")
    assert code == 1
    assert out == "" and "worker" in err


def test_deep_nesting_is_a_diagnostic(tmp_path, capsys):
    deep = tmp_path / "deep.swl"
    deep.write_text("x := " + "(" * 3000 + "1" + ")" * 3000)
    code, out, err = run_cli(capsys, "run", deep, "--time", "1")
    assert code == 1
    assert out == "" and "nesting too deep" in err


def _parse_json_of_statements(tmp_path, capsys, n):
    flat = tmp_path / f"flat{n}.swl"
    flat.write_text(" ;\n".join(["x := x + 1"] * n))
    code, out, err = run_cli(capsys, "parse", "--json", flat)
    assert (code, err) == (0, "")
    return out


def test_parse_json_prints_a_long_statement_list(tmp_path, capsys):
    # the JSON AST nests one "seq" per statement: at 1 500 statements that
    # used to end in "nesting too deep to parse", exit 1
    statement = json.loads(_parse_json_of_statements(tmp_path, capsys, 1))["program"]
    program = statement
    for _ in range(199):
        program = {"kind": "seq", "first": statement, "rest": program}
    # the bytes of the recursive encoder, json.dumps of the nested dicts
    assert _parse_json_of_statements(tmp_path, capsys, 200) == json.dumps(
        {"variables": ["x"], "program": program}, sort_keys=True) + "\n"
    text = json.dumps(statement, sort_keys=True)
    spine = f'{{"first": {text}, "kind": "seq", "rest": '
    assert _parse_json_of_statements(tmp_path, capsys, 10000) == (
        '{"program": ' + spine * 9999 + text + "}" * 9999 + ', "variables": ["x"]}\n')


def test_program_json_is_the_sorted_key_encoding_of_its_own_value():
    rng = random.Random(7)
    for _ in range(200):
        table = gen_table(rng)
        text = cli._program_json(gen_program(rng, table, 4), table)
        assert json.dumps(json.loads(text), sort_keys=True) == text


def test_a_nest_too_deep_to_print_is_a_diagnostic(tmp_path, capsys):
    # 300 nested ifs parse and run, but the recursive printer of `parse`
    # gives up on them
    deep = tmp_path / "deep.swl"
    deep.write_text("if x <= 0 then " * 300 + "x := 1" + " else x := 2" * 300)
    assert run_cli(capsys, "run", deep, "--time", "1", "--seed", "1")[0] == 0
    assert run_cli(capsys, "parse", deep) == (1, "", "error: nesting too deep to parse or print\n")


def test_auto_seed_is_reported(capsys):
    code, _, err = run_cli(
        capsys, "simulate", PROGRAMS / "timestop.swl", "--runs", "1", "--grid", "0:1:1"
    )
    assert code == 0
    assert err.startswith("seed: ")


@pytest.mark.parametrize("command", ["simulate", "adequacy"])
def test_grid_needs_three_fields(capsys, command):
    seed = ("--seed", "1") if command == "simulate" else ()
    code, out, err = run_cli(capsys, command, PROGRAMS / "ball.swl", "--grid", "0:1", *seed)
    assert code == 1
    assert out == "" and err == "error: --grid expects START:END:STEP\n"


@pytest.mark.parametrize("grid", ["0:nan:0.1", "0:inf:0.1", "nan:1:0.1", "-inf:1:0.1", "0:1:nan"])
@pytest.mark.parametrize("command", ["simulate", "adequacy"])
def test_non_finite_grid_exits_cleanly(capsys, command, grid):
    # a NaN or infinite bound used to grow the list of grid times without end
    seed = ("--seed", "1") if command == "simulate" else ()
    # "--grid=..." keeps argparse from reading "-inf:1:0.1" as an option
    code, out, err = run_cli(capsys, command, PROGRAMS / "ball.swl", f"--grid={grid}", *seed)
    assert code == 1
    assert out == "" and err == "error: grid start, end and step must be finite\n"


@pytest.mark.parametrize("check", ["x <=", ""])
def test_check_parse_error_names_the_check_text(capsys, check):
    # an empty --check used to be skipped, so the ensemble CSV came out instead
    code, out, err = run_cli(
        capsys, "simulate", PROGRAMS / "ball.swl", "--grid", "0:1:0.5", "--check", check, "--seed", "1"
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: --check {check!r}: 1:1: ")
    assert "ball.swl" not in err


@pytest.mark.parametrize("flag", [("--start", "0"), ("--end", "3"), ("--step", "0.25")])
def test_simulate_grid_with_another_time_flag_is_an_error(capsys, flag):
    # the grid used to win and the other flag was dropped without a word;
    # --grid is now the only way to give the grid
    code, out, err = usage_exit(
        capsys, "simulate", PROGRAMS / "ball.swl", "--grid", "0:1:0.5", *flag, "--seed", "1"
    )
    assert code == 1
    assert out == "" and f"error: unrecognized arguments: {' '.join(flag)}\n" in err


def test_adequacy_time_with_grid_is_an_error(capsys):
    # --grid used to be dropped in favour of --time
    code, out, err = run_cli(
        capsys, "adequacy", PROGRAMS / "ball.swl", "--time", "1", "--grid", "0:2:1"
    )
    assert code == 1
    assert out == "" and err == "error: --time cannot be combined with --grid\n"


def test_interval_without_check_is_an_error(capsys):
    code, out, err = run_cli(
        capsys, "simulate", PROGRAMS / "ball.swl", "--grid", "0:1:0.5", "--interval", "0", "1",
        "--seed", "1",
    )
    assert code == 1
    assert out == "" and err == "error: --interval needs --check\n"


def test_interval_holding_no_grid_time_is_an_error(capsys):
    # used to print excluded,5 and exit 0, although no run erred or diverged
    code, out, err = run_cli(
        capsys, "simulate", PROGRAMS / "ball.swl", "--grid", "0:1:0.5", "--runs", "5",
        "--seed", "1", "--check", "p <= 0", "--interval", "0.1", "0.2",
    )
    assert code == 1
    assert out == "" and err == "error: interval [0.1, 0.2] holds no grid time\n"


@pytest.mark.parametrize("interval, sampled", [(("0.25", "0.3"), 1), (("0.1", "0.3"), 3)])
def test_interval_endpoints_match_grid_times_as_hist_does(capsys, interval, sampled):
    # 0:1:0.1 holds 0.30000000000000004, which --hist p@0.3 reads; an interval
    # ending at 0.3 used to leave it out, and [0.25, 0.3] held no grid time
    code, out, err = run_cli(
        capsys, "simulate", PROGRAMS / "ball.swl", "--grid", "0:1:0.1", "--runs", "4",
        "--seed", "1", "--check", "p <= 100", "--interval", *interval,
    )
    assert (code, err) == (0, "")
    assert f"condition sampled at {sampled} grid times in [{interval[0]}, {interval[1]}]" in out


def test_inf_time_exits_cleanly(capsys):
    # run used to burn its whole fuel budget (exit 3); adequacy printed
    # "t": Infinity, which is not JSON, with empty supports and exit 0
    code, out, err = run_cli(
        capsys, "run", PROGRAMS / "timestop.swl", "--time", "inf", "--seed", "1"
    )
    assert code == 1
    assert out == "" and err == "error: remaining time must be finite\n"
    code, out, err = run_cli(
        capsys, "adequacy", PROGRAMS / "timestop.swl", "--time", "inf", "--rational"
    )
    assert code == 1
    assert out == "" and err == "error: remaining time must be finite\n"


def test_adequacy_negative_unfold_exits_cleanly(tmp_path, capsys):
    # loop-free, so a missing check would print "pass": true, not hang
    f = tmp_path / "line.swl"
    f.write_text("x := 1 ; wait 1")
    code, out, err = run_cli(
        capsys, "adequacy", f, "--unfold", "-1", "--time", "1", "--rational"
    )
    assert code == 1
    assert out == "" and err == "error: the Kleene index must be nonnegative\n"


def usage_exit(capsys, *argv):
    with pytest.raises(SystemExit) as info:
        main([str(a) for a in argv])
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv, message", [
    (("simulate", PROGRAMS / "ball.swl", "--grid", "-inf:1:0.1"),
     "argument --grid: expected one argument"),
    (("simulate", PROGRAMS / "ball.swl", "--runs", "x"),
     "argument --runs: invalid int value: 'x'"),
    (("run", PROGRAMS / "timestop.swl"), "the following arguments are required: --time"),
    (("simulate", PROGRAMS / "ball.swl", "--seed", "1"),
     "the following arguments are required: --grid"),
    # leftover arguments used to be reported under the top-level usage line,
    # "usage: swhile [-h] {parse,run,simulate,adequacy} ..."
    (("simulate", PROGRAMS / "ball.swl", "--grid", "0:1:0.5", "--end", "3"),
     "unrecognized arguments: --end 3"),
    (("adequacy", PROGRAMS / "ball.swl", "--time", "1", "--bogus"),
     "unrecognized arguments: --bogus"),
    # an option's "--" value used to be reported under the top-level usage line
    (("run", PROGRAMS / "ball.swl", "--seed", "1", "--time=--"),
     "argument --time: expected one argument"),
])
def test_usage_errors_exit_1(capsys, argv, message):
    # argparse exits 2, which the documented codes give to evaluation errors
    code, out, err = usage_exit(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"usage: swhile {argv[0]} ")
    assert err.endswith(f"swhile {argv[0]}: error: {message}\n")


def test_help_exits_0(capsys):
    code, out, err = usage_exit(capsys, "simulate", "--help")
    assert code == 0
    assert out.startswith("usage: swhile simulate ") and err == ""


GOLDEN_USAGE = ROOT / "tests" / "golden" / "usage"
USAGE_CASES = [line.split()
               for line in (GOLDEN_USAGE / "cases.txt").read_text().splitlines()
               if line and not line.startswith("#")]


@pytest.mark.parametrize("case", USAGE_CASES, ids=lambda case: case[0])
def test_usage_matches_golden(case, capsys, monkeypatch):
    # pins the help and usage text of the top-level parser and of each
    # command's parser, as argparse lays it out 80 columns wide
    name, want, *args = case
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = usage_exit(capsys, *args)
    assert code == int(want)
    text, other = (out, err) if code == 0 else (err, out)
    assert other == ""
    assert text.encode() == (GOLDEN_USAGE / f"{name}.txt").read_bytes()


def test_an_unknown_command_is_a_top_level_usage_error(capsys):
    # no golden file: how argparse quotes the list of choices after
    # "invalid choice" differs between Python releases
    code, out, err = usage_exit(capsys, "bogus")
    assert (code, out) == (1, "")
    usage, message, rest = err.split("\n")
    assert usage == "usage: swhile [-h] {parse,run,simulate,adequacy} ..."
    assert message.startswith("swhile: error: argument command: invalid choice: 'bogus' (choose from ")
    assert all(name in message for name in ("parse", "run", "simulate", "adequacy"))
    assert rest == ""


def test_a_list_default_is_not_shared_between_command_lines(capsys):
    # the command table holds --init's default list once for every parser;
    # argparse appends to a copy of it
    for _ in range(2):
        assert main(["run", str(PROGRAMS / "ball.swl"), "--time", "0", "--seed", "1",
                     "--init", "p=3"]) == 0
    assert cli._INIT[1]["default"] == []


@pytest.mark.parametrize("first", ["--", "--foo"])
def test_an_option_before_the_command_is_a_top_level_usage_error(capsys, first):
    code, out, err = usage_exit(capsys, first, "parse", PROGRAMS / "ball.swl")
    assert (code, out) == (1, "")
    assert err.startswith("usage: swhile [-h] {parse,run,simulate,adequacy} ...\nswhile: error: ")


@pytest.mark.parametrize("argv", [
    ("parse", PROGRAMS / "ball.swl"),
    ("run", PROGRAMS / "ball.swl", "--time", "1", "--seed", "1"),
    ("simulate", PROGRAMS / "ball.swl", "--grid", "0:1:0.5", "--seed", "1"),
    ("adequacy", PROGRAMS / "ball.swl", "--time", "1", "--rational"),
    ("run", PROGRAMS / "ball.swl", "--seed", "1"),
], ids=["parse", "run", "simulate", "adequacy", "usage-error"])
def test_a_command_line_builds_one_parser(monkeypatch, capsys, argv):
    # the parsers of all four commands used to be built to read one of them
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    try:
        main([str(a) for a in argv])
    except SystemExit:
        pass
    capsys.readouterr()
    assert built == [f"swhile {argv[0]}"]


@pytest.mark.parametrize("k", [100000, 1000000])
def test_branch_cap_bounds_the_work_of_a_wide_fork(capsys, k):
    # every one of a fork's k children, each with a copy of the work stack,
    # used to be made before the cap was checked: 3.1 s at k = 100000
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "adequacy", PROGRAMS / "ball.swl", "--k", k,
                             "--time", "1", "--cap", "10")
    assert time.perf_counter() - start < 1.0
    assert code == 5 and err == ""
    assert json.loads(out) == {"cap": 10, "error": "enumeration explored 11 branches, cap is 10"}


@pytest.mark.parametrize("command", ["simulate", "adequacy"])
def test_grid_over_the_maximum_exits_cleanly(capsys, command):
    # 10^18 grid times: the grid loop used to run without end
    seed = ("--seed", "1") if command == "simulate" else ()
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, PROGRAMS / "ball.swl", "--grid", "0:1e9:1e-9", *seed)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == "" and err == (f"error: grid would hold more than "
                                 f"{smallstep.MAX_GRID_POINTS} times\n")


@pytest.mark.parametrize("grid", ["0:1e-300:1e-300", "1e-300:0:1e-300"])
def test_a_step_below_the_grid_tolerance_exits_cleanly(capsys, grid):
    # the grid loop runs to end + 1e-12, which the count of its times used
    # to leave out: about 10^288 times for these grids, without end
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", PROGRAMS / "ball.swl", f"--grid={grid}",
                             "--seed", "1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == f"error: grid would hold more than {smallstep.MAX_GRID_POINTS} times\n"


def test_a_step_below_the_grid_tolerance_within_the_maximum_is_simulated(capsys):
    # a 1e-13 step: the times in (1e-9, 1e-9 + 1e-12] used to be clamped
    # onto the end as well, so the grid refused its repeated last time
    code, out, err = run_cli(capsys, "simulate", PROGRAMS / "ball.swl", "--grid", "0:1e-9:1e-13",
                             "--runs", "1", "--seed", "1", "--check", "p <= 20")
    assert (code, err) == (0, "")
    times = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert times[0] == 0.0 and times[-1] == 1e-9 and len(times) == 10001
    assert all(a < b for a, b in zip(times, times[1:]))


def test_grid_of_the_maximum_length_is_accepted():
    grid = smallstep.TimeGrid.regular(0.0, smallstep.MAX_GRID_POINTS - 1.0, 1.0)
    assert len(grid.times) == smallstep.MAX_GRID_POINTS
    with pytest.raises(ValueError, match="grid would hold more than"):
        smallstep.TimeGrid.regular(0.0, float(smallstep.MAX_GRID_POINTS), 1.0)


def test_bins_over_the_maximum_exit_cleanly(capsys):
    # 10^12 bins: numpy's histogram asked for 7.28 TiB and the CLI crashed
    code, out, err = run_cli(capsys, "simulate", PROGRAMS / "ball.swl", "--runs", "2",
                             "--grid", "0:1:0.5", "--hist", "p@1.0", "--bins", "1000000000000",
                             "--seed", "1")
    assert code == 1
    assert out == "" and err == (f"error: a histogram may hold at most "
                                 f"{montecarlo.MAX_HISTOGRAM_BINS} bins\n")


@pytest.mark.parametrize("flags, message", [
    (("--hist", "p@1.0", "--bins", "0"), "need at least one bin"),
    (("--hist", "p@1.0", "--bins", "1000001"),
     f"a histogram may hold at most {montecarlo.MAX_HISTOGRAM_BINS} bins"),
    (("--hist", "@1.0"), "--hist expects VAR@T"),
    (("--hist", "p@soon"), "bad --hist 'p@soon': 'soon' is not a number"),
    (("--hist", "q@1.0"), "unknown variable 'q'; have ['p', 'v', 'd']"),
    (("--hist", "p@0.7"), "time 0.7 is not on the grid (0.0, 0.5, 1.0)"),
    (("--check", "p <= 0", "--interval", "0", "2"), "interval must lie within the grid"),
    (("--check", "p <= 0", "--interval", "0.1", "0.2"), "interval [0.1, 0.2] holds no grid time"),
    (("--check", "p <= 0", "--interval", "0.9", "0.6"),
     "interval [0.9, 0.6] is reversed: its start exceeds its end"),
    (("--check", "p <= 5", "--hist", "p@1.0"), "--hist cannot be combined with --check"),
    (("--bins", "3"), "--bins needs --hist"),
    (("--grid", "0:1:x"), "bad --grid '0:1:x': 'x' is not a number"),
    (("--flow", "rk4:abc"), "bad --flow 'rk4:abc': 'abc' is not a number"),
], ids=["no-bins", "too-many-bins", "no-var", "bad-time", "unknown-var", "off-grid",
        "interval-outside", "interval-empty", "interval-reversed", "hist-and-check",
        "bins-alone", "bad-grid", "bad-flow"])
def test_statistic_flags_are_refused_before_any_run_is_recorded(monkeypatch, capsys, flags,
                                                                message):
    # each refusal used to come only after the whole ensemble was recorded
    def record(*args, **kwargs):
        raise AssertionError("an ensemble was recorded")

    monkeypatch.setattr(montecarlo, "run_ensemble", record)
    code, out, err = run_cli(capsys, "simulate", PROGRAMS / "ball.swl", "--runs", "2",
                             "--grid", "0:1:0.5", "--seed", "1", *flags)
    assert code == 1
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("run", PROGRAMS / "ball.swl", "--time", "1", "--flow", "rk4:abc"),
     "bad --flow 'rk4:abc': 'abc' is not a number"),
    (("simulate", PROGRAMS / "ball.swl", "--grid", "0:1:x"), "bad --grid '0:1:x': 'x' is not a number"),
    (("simulate", PROGRAMS / "ball.swl", "--grid", "0:1:0.5", "--hist", "p@soon"),
     "bad --hist 'p@soon': 'soon' is not a number"),
    # checked by Config, the closure, eval_big or run_ensemble, which run after the seed is drawn
    (("run", PROGRAMS / "ball.swl", "--time", "inf"), "remaining time must be finite"),
    (("run", PROGRAMS / "ball.swl", "--time", "-1"), "remaining time must be nonnegative"),
    (("run", PROGRAMS / "ball.swl", "--time", "1", "--fuel", "0"), "fuel must be at least 1"),
    (("simulate", PROGRAMS / "ball.swl", "--grid", "0:1:0.5", "--runs", "0"), "need at least one run"),
    (("simulate", PROGRAMS / "ball.swl", "--grid", "0:1:0.5", "--parallel", "0"),
     "need at least one worker"),
    (("simulate", PROGRAMS / "ball.swl", "--grid", "0:1:0.5", "--fuel", "0"), "fuel must be at least 1"),
    (("simulate", PROGRAMS / "ball.swl", "--grid", "0:1:0.1", "--runs", "100000000"),
     "100000000 runs x 11 grid times exceed the ensemble maximum of 100000000 points"),
], ids=["run-flow", "simulate-grid", "simulate-hist", "run-time-inf", "run-time-negative",
        "run-fuel", "simulate-runs", "simulate-parallel", "simulate-fuel", "simulate-points"])
def test_a_flag_error_draws_no_seed(capsys, argv, message):
    # without --seed, a seed used to be drawn and printed before the flag was read
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_run_format_needs_trace(capsys, fmt):
    # only --trace reads --format: without it, the text result used to be printed (exit 0)
    assert run_cli(capsys, "run", PROGRAMS / "ball.swl", "--time", "1", "--seed", "1",
                   "--format", fmt) == (1, "", "error: --format needs --trace\n")


def test_an_off_grid_time_on_a_long_grid_is_named_by_the_grid_extent(monkeypatch, capsys):
    # every grid time used to be listed: a 176 KB line for a 16 667-time grid
    monkeypatch.setattr(montecarlo, "run_ensemble", None)  # refused before any run
    code, out, err = run_cli(capsys, "simulate", PROGRAMS / "ball.swl", "--grid", "0:1e5:1",
                             "--hist", "p@2.5", "--seed", "1")
    assert (code, out) == (1, "")
    assert err == ("error: time 2.5 is not on the grid of 100001 times from 0.0 to 100000.0;"
                   " the nearest is 2.0\n")
    assert len(err) < 200


_TENTHS = smallstep.TimeGrid.regular(0.0, 1.0, 0.1).times  # 0.30000000000000004 among them


@pytest.mark.parametrize("flags, read", [
    (("--hist", "p@0.3"), _TENTHS[3:4]),
    (("--hist", "p@0.0"), _TENTHS[:1]),
    (("--hist", "p@1.0", "--bins", "3"), _TENTHS[-1:]),
    (("--check", "p <= 9.9", "--interval", "0.25", "0.3"), _TENTHS[3:4]),
    (("--check", "p <= 9.9", "--interval", "0.3", "0.7"), _TENTHS[3:8]),
    (("--check", "p <= 9.9", "--interval", "0.15", "0.55"), _TENTHS[2:6]),
    (("--check", "p <= 9.9", "--interval", "0", "1"), _TENTHS),
    (("--check", "p <= 9.9"), _TENTHS),
    ((), _TENTHS),
    (("--format", "json"), _TENTHS),
], ids=["hist-named", "hist-first", "hist-last", "interval-named", "interval-rounded-ends",
        "interval-between", "interval-whole", "series", "csv", "json"])
def test_simulate_records_the_grid_times_its_statistic_reads(monkeypatch, capsys, flags, read):
    # a histogram and an interval used to record and read every grid time,
    # then keep one time or one window of them
    grids = []
    run_ensemble = montecarlo.run_ensemble

    def spy(program, table, store0, grid, *args, **kwargs):
        grids.append(grid)
        return run_ensemble(program, table, store0, grid, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "run_ensemble", spy)
    code, _, _ = run_cli(capsys, "simulate", PROGRAMS / "ball.swl", "--runs", "3",
                         "--grid", "0:1:0.1", "--seed", "1", *flags)
    assert code == 0
    assert [(g.start, g.end, g.times) for g in grids] == [(0.0, 1.0, read)]


# (program, table, --hist variable, --check condition): mixed.swl's runs
# terminate, err or loop without end, ball's flow
_READ_CASES = [(*parse_file(ROOT / "tests" / "golden" / "simulate" / "mixed.swl"), "x", "x <= 0"),
               (*parse_file(PROGRAMS / "ball.swl"), "p", "p <= 9.9")]


@st.composite
def _statistic_on_a_grid(draw):
    """A program, a regular grid and `--hist` or `--check … --interval` flags
    on it, the times typed as a user would: rounded grid times, or any time
    in the grid."""
    program, table, var, check = draw(st.sampled_from(_READ_CASES))
    start = draw(st.sampled_from([0.0, 0.1, 1.5]))
    step = draw(st.sampled_from([0.05, 0.1, 0.25, 1 / 3]))
    end = start + draw(st.integers(1, 8)) * step + draw(st.sampled_from([0.0, step / 2]))
    grid = smallstep.TimeGrid.regular(start, end, step)
    typed = st.sampled_from(grid.times).map(lambda t: round(t, 9))
    args = argparse.Namespace(format="csv", bins=None, hist=None, interval=None, check=None)
    if draw(st.booleans()):
        args.hist = f"{var}@{draw(typed)!r}"
    else:
        args.check = check
        args.interval = sorted(draw(st.lists(st.one_of(typed, st.floats(start, grid.end)),
                                             min_size=2, max_size=2)))
    return program, table, grid, args


@given(_statistic_on_a_grid(), st.booleans(), st.sampled_from([3, 17]))
@settings(max_examples=100, deadline=None)
def test_a_statistic_on_the_times_it_reads_is_the_statistic_on_the_whole_grid(case, fast, runs):
    # 17 runs take the frontier recorder, 3 the per-run one; fuel 30 cuts
    # mixed.swl's endless loops and ball's bounces
    program, table, grid, args = case
    if args.interval is not None:
        try:
            montecarlo.interval_indices(grid, *args.interval)
        except ValueError:  # an interval that holds no grid time
            assume(False)
    cond = None if args.check is None else cli._check_of(args, table)
    statistic, _, read = cli._statistic(args, table, grid, cond)

    def ensemble(on):
        return montecarlo.run_ensemble(program, table, (0.0,) * len(table), on, runs, 7,
                                       fuel=30, fast=fast)

    assert statistic(ensemble(read)) == statistic(ensemble(grid))


# Run in a small intermediate process: a child's peak RSS starts from that of
# the process it was forked from, which for pytest would hide the difference.
_MEASURE = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024)  # KiB on Linux
"""


def _peak_rss_mb(*argv):
    """Exit code and peak RSS (MB) of `swhile argv` in a new process, stdout discarded."""
    out = subprocess.run([sys.executable, "-c", _MEASURE, sys.executable, "-m", "swhile.cli",
                          *map(str, argv)], env=src_env(), capture_output=True, text=True, check=True)
    code, rss = out.stdout.split()
    return int(code), float(rss)


def test_traced_run_streams_its_configurations():
    # the trace used to be kept until the run ended: 89.8 MB against 57.4 MB
    args = ("run", PROGRAMS / "timestop.swl", "--time", "80000", "--seed", "1")
    code, plain = _peak_rss_mb(*args)
    traced_code, traced = _peak_rss_mb(*args, "--trace")
    assert code == traced_code == 0
    assert traced - plain < 5.0


def _limit_memory():
    # 1 GiB of address space: a regression fails here instead of growing
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


def _fresh_cli(budget, *argv):
    """Exit code, stdout and seconds of `swhile argv` in a new process that
    must end within `budget` seconds (a timeout fails the test)."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "swhile.cli", *map(str, argv)], env=src_env(),
                         capture_output=True, text=True, timeout=budget,
                         preexec_fn=_limit_memory)
    assert "Traceback" not in out.stderr
    return out.returncode, out.stdout, time.perf_counter() - start


def test_a_huge_k_meets_the_cap_without_building_its_atoms():
    # the atoms used to be built as a tuple of k floats on every access:
    # at k = 10^8 that reached 1.8 GB and died with a MemoryError traceback
    code, out, seconds = _fresh_cli(10, "adequacy", PROGRAMS / "ball.swl", "--k", 10 ** 8,
                                    "--time", "1", "--cap", "10")
    assert code == 5
    assert json.loads(out) == {"cap": 10, "error": "enumeration explored 11 branches, cap is 10"}
    assert seconds < 2.0


def test_a_closed_stdout_is_an_io_failure():
    # a reader that stops after one line closes the pipe while the trace is
    # still being written: exit 4 with a diagnostic, not a traceback
    with subprocess.Popen([sys.executable, "-m", "swhile.cli", "run", PROGRAMS / "timestop.swl",
                           "--time", "2000", "--seed", "1", "--trace"], env=src_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first.startswith("x := 0.0 ; while tt do")
    assert code == 4
    assert err == "i/o error: [Errno 32] Broken pipe\n"


def test_an_rk4_flow_over_the_step_maximum_is_an_error():
    # ceil(1 / 1e-300) RK4 steps: the flow used to run without end
    code, out, seconds = _fresh_cli(10, "run", PROGRAMS / "ball.swl", "--time", "1",
                                    "--flow", "rk4:1e-300", "--seed", "1")
    assert code == 2
    assert out.splitlines()[0] == "err"
    assert seconds < 2.0


def test_an_rk4_stage_overflow_is_an_evaluation_error(tmp_path, capsys):
    # a stage store overflowing to inf made sin(x) raise "math domain error":
    # every command exited 1 with that message
    prog = tmp_path / "overflow.swl"
    prog.write_text("x := 1.7e308 ; y := 0 ; x' = 1e308, y' = sin(x) for 1")
    code, out, err = run_cli(capsys, "run", prog, "--time", "2", "--flow", "rk4:1", "--seed", "1")
    assert (code, out, err) == (2, "err\nsteps: 3\n", "")
    for runs in (2, 20):
        code, out, err = run_cli(capsys, "simulate", prog, "--grid", "0:2:1", "--runs", runs,
                                 "--flow", "rk4:1", "--seed", "1")
        assert (code, err) == (0, "")
        rows = out.splitlines()[1:]
        assert [row.rsplit(",", 1)[1] for row in rows] == ["ok", "error", "error"] * runs
    code, out, err = run_cli(capsys, "adequacy", prog, "--time", "2", "--flow", "rk4:1")
    assert (code, err) == (0, "")
    assert json.loads(out)["pass"] is True


_OVERFLOWING_FOLDS = [
    # folded to x' = 0 by the default and exact flows, which printed x = 0.0
    ("1 / (1e308 * 10)", 2),
    # folding cos(inf) raised "math domain error": run, simulate and adequacy exited 1
    ("cos(1e308 * 10)", 2),
    # A = [[inf]]: the default flow took scipy's expm and erred
    ("1e308 * x + 1e308 * x", 0),
]


@pytest.mark.parametrize("deriv, want", _OVERFLOWING_FOLDS)
def test_default_and_rk4_flows_agree_where_a_fold_overflows(deriv, want, tmp_path, capsys):
    prog = tmp_path / "fold.swl"
    prog.write_text(f"x := 0 ; x' = {deriv} for 1")
    for flag in ((), ("--flow", "rk4:0.1")):
        code, out, err = run_cli(capsys, "run", prog, "--time", "2", "--seed", "1", *flag)
        assert (code, err) == (want, ""), flag
        end = "normal: x = 0.0 (remaining time 1.0)" if want == 0 else "err"
        assert out == end + "\nsteps: 2\n", flag
    # the block has no exact flow: an overflowing fold is not affine
    code, out, err = run_cli(capsys, "run", prog, "--time", "2", "--seed", "1", "--flow", "exact")
    assert (code, out, err) == (2, "err\nsteps: 2\n", "")
    code, _, err = run_cli(capsys, "simulate", prog, "--grid", "0:2:1", "--runs", "2", "--seed", "1")
    assert (code, err) == (0, "")
    code, out, err = run_cli(capsys, "adequacy", prog, "--time", "2", "--rational")
    assert (code, err) == (0, "")
    assert json.loads(out)["pass"] is True


def test_overflowing_flows_print_no_numpy_warning(tmp_path):
    # x' = x overflows scipy's expm by t = 1000, which printed numpy's
    # "RuntimeWarning: overflow encountered in exp" ahead of `err`; a new
    # interpreter shows every warning, as pytest's capture would hide them
    grow = tmp_path / "grow.swl"
    grow.write_text("x := 1 ; x' = x for 1000")
    twice = tmp_path / "twice.swl"
    twice.write_text("x := 0 ; x' = 1e308 * x + 1e308 * x for 1")
    commands = [["run", str(grow), "--time", "2000", "--seed", "1"],
                ["simulate", str(grow), "--grid", "0:2000:1000", "--runs", "2", "--seed", "1"],
                ["run", str(twice), "--time", "2", "--seed", "1"]]
    proc = subprocess.run([sys.executable, "-W", "always", "-c", f"""
import contextlib, io
from swhile.cli import main
codes = []
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(*codes)
"""], capture_output=True, text=True, env=src_env(), cwd=ROOT, timeout=120)
    assert (proc.stdout, proc.stderr) == ("2 0 0\n", "")


def test_a_histogram_wider_than_the_largest_float_is_counted(tmp_path):
    # max - min = 3.4e308 overflows: numpy's own edges printed two
    # RuntimeWarnings and then refused to make the bins (exit 1)
    wide = tmp_path / "wide.swl"
    wide.write_text("x := unif(0, 1) ; if x <= 0.5 then { y := 1.7e308 } "
                    "else { y := -1.7e308 } ; wait 1")
    cases = [(bins, fmt) for bins in (1, 2, 4) for fmt in ("csv", "json")]
    commands = [["simulate", str(wide), "--grid", "0:1:1", "--runs", "8", "--seed", "1",
                 "--hist", "y@1", "--bins", str(bins), "--format", fmt,
                 "--out", str(tmp_path / f"{bins}.{fmt}")] for bins, fmt in cases]
    proc = subprocess.run([sys.executable, "-W", "always", "-c", f"""
from swhile.cli import main
print(*[main(argv) for argv in {commands!r}])
"""], capture_output=True, text=True, env=src_env(), cwd=ROOT, timeout=120)
    assert (proc.stdout, proc.stderr) == ("0 0 0 0 0 0\n", "")
    for bins, fmt in cases:
        text = (tmp_path / f"{bins}.{fmt}").read_text()
        if fmt == "json":
            result = json.loads(text)
            counts, edges, excluded = result["counts"], result["edges"], result["excluded"]
        else:
            *rows, last = [line.split(",") for line in text.splitlines()[1:]]
            counts = [int(row[2]) for row in rows]
            edges = [float(row[0]) for row in rows] + [float(rows[-1][1])]
            excluded = int(last[2])
        assert len(counts) == bins and sum(counts) == 8 - excluded
        assert all(map(math.isfinite, edges)) and edges == sorted(set(edges))
        assert len(edges) == bins + 1


def test_an_ensemble_over_the_point_maximum_is_refused_before_its_seeds_are_split():
    # 10^12 runs used to split 10^12 seeds, allocating nothing, for hours
    code, out, seconds = _fresh_cli(10, "simulate", PROGRAMS / "random_walk.swl", "--grid",
                                    "0:1:1", "--runs", 10 ** 12, "--seed", "1")
    assert (code, out) == (1, "")
    assert seconds < 2.0
    program, table = parse_file(PROGRAMS / "random_walk.swl")
    grid = montecarlo.TimeGrid.regular(0.0, 1.0, 1.0)
    runs = montecarlo.MAX_ENSEMBLE_POINTS // 2 + 1
    with pytest.raises(ValueError, match="ensemble maximum"):
        montecarlo.run_ensemble(program, table, (0.0,) * len(table), grid, runs, 1)


# --- argv fuzz over the free-text flag values --------------------------------

_HOSTILE = ["nan", "-nan", "inf", "-inf", "0", "-0", "-1", "1e300", "-1e300", "1e-300",
            "-1e-300", "1e309", ""]
# no digits and none of the letters of "inf" and "nan": garbage never reads as a number
_GARBAGE = st.text(alphabet="abcdeghjklmopqrstuvwxyz:@=<-+ .'()", max_size=12)
_VALUE = st.one_of(st.sampled_from(_HOSTILE), _GARBAGE)
# legal values are drawn where they stay cheap: ball runs at most a few time units
_TIME = st.one_of(st.sampled_from(["0", "0.5", "1", "3"]), _VALUE)
_FLAGS = {
    "--flow": st.one_of(st.sampled_from(["auto", "exact", "rk4:0.1"]), _VALUE,
                        st.builds("rk4:".__add__, _VALUE)),
    "--grid": st.one_of(_VALUE, st.lists(st.one_of(st.sampled_from(["0", "0.5", "1"]), _VALUE),
                                         min_size=3, max_size=3).map(":".join)),
    "--init": st.builds("{}={}".format, st.sampled_from(["p", "v", "d", "q", ""]), _TIME),
    "--check": st.one_of(st.builds("p <= {}".format, _TIME), _GARBAGE),
    "--interval": st.lists(_TIME, min_size=2, max_size=2),
    "--hist": st.one_of(st.builds("p@{}".format, _TIME), _GARBAGE),
    "--time": _TIME,
}
_SUBCOMMANDS = {
    "run": (["--time", "--flow", "--init"], ["--time=1", "--seed=1", "--fuel=1000"]),
    "simulate": (["--grid", "--flow", "--init", "--check", "--interval", "--hist"],
                 ["--grid=0:1:0.5", "--runs=2", "--seed=1", "--fuel=1000"]),
    "adequacy": (["--time", "--grid", "--flow", "--init"], ["--time=1", "--cap=1000"]),
}
_CALL_BUDGET_S = 10.0


class _OverBudget(BaseException):
    pass


@st.composite
def _argv(draw, command):
    fuzzed, base = _SUBCOMMANDS[command]
    flags = draw(st.lists(st.sampled_from(fuzzed), min_size=1, max_size=3, unique=True))
    argv = [command, str(PROGRAMS / "ball.swl")]
    for flag in flags:
        value = draw(_FLAGS[flag])
        if flag == "--interval":
            argv += [flag, *value]
            if "--check" not in flags:
                argv.append("--check=p <= 5")
        else:
            argv.append(f"{flag}={value}")
    return argv + [b for b in base if b.partition("=")[0] not in flags]


def _exit_code_within_budget(argv):
    """`main(argv)`'s exit code, its output discarded; argparse's SystemExit
    counts as its code.  A call over the budget raises _OverBudget."""
    def expire(signum, frame):
        raise _OverBudget(f"swhile {argv} took over {_CALL_BUDGET_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, _CALL_BUDGET_S)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                return main(argv)
            except SystemExit as exc:
                assert exc.code in (0, 1), argv
                return exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_hostile_flag_values_end_in_an_exit_code(command):
    # an unknown --flow used to escape main as an ArgumentTypeError traceback
    @given(_argv(command))
    @settings(max_examples=150, deadline=None)
    def check(argv):
        assert _exit_code_within_budget(argv) in range(6), argv

    check()


# --- argv fuzz over the count flags ------------------------------------------

_HUGE = ["9223372036854775808", "10" + "0" * 17, "1" + "0" * 100]
_REFUSED_COUNTS = ["0", "-1"] + ["-" + h for h in _HUGE]
# legal counts are drawn where they stay cheap; --runs stays below the 512
# runs at which a pool of two workers could start, so no call forks
_CHEAP = {"--runs": (1, 511), "--bins": (1, 10 ** 6), "--fuel": (1, 10 ** 6),
          "--parallel": (1, 4), "--k": (1, 3), "--unfold": (0, 6), "--cap": (1, 1000)}
_COUNT_SUBCOMMANDS = {
    "run": (["--fuel"], ["--time=1", "--seed=1"]),
    "simulate": (["--runs", "--bins", "--fuel", "--parallel"],
                 ["--grid=0:1:0.5", "--runs=2", "--seed=1"]),
    "adequacy": (["--k", "--unfold", "--cap"], ["--time=1", "--cap=1000"]),
}


def _count(flag):
    low, high = _CHEAP[flag]
    hostile = _REFUSED_COUNTS if flag == "--runs" else _REFUSED_COUNTS + _HUGE
    return st.one_of(st.sampled_from(hostile), st.integers(low, high).map(str))


@st.composite
def _count_argv(draw, command, program):
    fuzzed, base = _COUNT_SUBCOMMANDS[command]
    flags = draw(st.lists(st.sampled_from(fuzzed), min_size=1, unique=True))
    values = {flag: draw(_count(flag)) for flag in flags}
    # a huge cap bounds nothing, so the arity and unfolding it meets must
    # be cheap; a huge arity or unfolding meets the base cap of 1000
    huge = [flag for flag, value in values.items() if value in _HUGE]
    assume(not ("--cap" in huge and len(huge) > 1))
    argv = [command, str(program)] + [f"{flag}={value}" for flag, value in values.items()]
    if "--bins" in flags:
        _, table = parse_file(program)
        argv.append(f"--hist={table.names[0]}@1.0")
    return argv + [b for b in base if b.partition("=")[0] not in flags]


@pytest.mark.parametrize("command", sorted(_COUNT_SUBCOMMANDS))
@pytest.mark.parametrize("program", program_files(), ids=lambda p: p.stem)
def test_hostile_counts_end_in_an_exit_code(command, program):
    @given(_count_argv(command, program))
    @settings(max_examples=10, deadline=None)
    def check(argv):
        assert _exit_code_within_budget(argv) in range(6), argv

    check()
