"""Every bundled example program parses, runs, and simulates cleanly."""

import json

import pytest

from swhile.entropy import from_seed
from swhile.montecarlo import Diverged, ErrorAt, TimeGrid, sample_trajectory
from swhile.parser import parse_file
from swhile.smallstep import Config, Err, OutOfFuel, run_to_terminal
from swhile.store import make_store
from swhile.syntax import pretty_print

from progpath import ROOT, program_files

GOLDEN = ROOT / "tests" / "golden" / "parse"


@pytest.mark.parametrize("path", program_files(), ids=lambda p: p.stem)
def test_program_parses_and_round_trips(path):
    from swhile.parser import parse_program

    program, table = parse_file(path)
    assert parse_program(pretty_print(program, table)) == (program, table)


@pytest.mark.parametrize(
    "path", program_files() + [ROOT / "bench" / "pendulum.swl"], ids=lambda p: p.stem
)
def test_parse_json_matches_golden(path, capsys):
    # pins the desugared AST and the variable-table order of every bundled program
    from swhile.cli import main

    assert main(["parse", "--json", str(path)]) == 0
    expected = json.loads((GOLDEN / f"{path.stem}.json").read_text())
    assert json.loads(capsys.readouterr().out) == expected


@pytest.mark.parametrize("path", program_files(), ids=lambda p: p.stem)
def test_program_evaluates_without_errors(path):
    program, table = parse_file(path)
    store = make_store(table)
    for t in (0.0, 1.0, 2.5):
        result = run_to_terminal(Config(program, store, t, from_seed(13)))
        assert not isinstance(result, (Err, OutOfFuel)), (path, t, result)


@pytest.mark.parametrize("path", program_files(), ids=lambda p: p.stem)
def test_program_simulates_without_markers(path):
    program, table = parse_file(path)
    grid = TimeGrid.regular(0.0, 3.0, 0.5)
    traj = sample_trajectory(program, make_store(table), grid, seed=99)
    for pt in traj.points:
        assert not isinstance(pt, (ErrorAt, Diverged)), (path, pt)
