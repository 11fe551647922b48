import json

import pytest

from swhile.cli import main

from progpath import PROGRAMS


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


def test_simulate_ball_csv(tmp_path, capsys):
    out_file = tmp_path / "ball.csv"
    code, _, _ = run_cli(
        capsys, "simulate", PROGRAMS / "ball.swl",
        "--runs", "1", "--end", "5", "--seed", "7", "--out", out_file,
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "run,t,p,v,d,status"
    assert len(lines) == 1 + 51


def test_simulate_is_reproducible(capsys):
    args = ("simulate", PROGRAMS / "ball.swl", "--runs", "2", "--end", "2", "--seed", "9")
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


def test_interval_without_check_is_an_error(capsys):
    code, out, err = run_cli(
        capsys, "simulate", PROGRAMS / "ball.swl", "--grid", "0:1:0.5", "--interval", "0", "1",
        "--seed", "1",
    )
    assert code == 1
    assert out == "" and err == "error: --interval needs --check\n"
