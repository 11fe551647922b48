import io
import json
import math
import random

import pytest

from swhile.montecarlo import (
    Diverged,
    ErrorAt,
    TerminatedEarly,
    TimeGrid,
    Value,
    ensemble_json,
    histogram,
    interval_probability,
    moments,
    probability_over_time,
    run_ensemble,
    sample_trajectory,
    write_ensemble_csv,
    write_histogram_csv,
    write_series_csv,
)
from swhile.ode import EXACT, RungeKutta4
from swhile.parser import parse_bool_expr, parse_file, parse_program
from swhile.store import make_store
from swhile.syntax import Assign, BoolLit, Call, DiffBlock, Lit, Seq, Var, While

from genprog import gen_program, gen_store, gen_table
from progpath import PROGRAMS, program_files

WALKTHROUGH = "x := 0 ; while tt { x++ ; wait 1 }"


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 2.0, (0.0,))
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.0, (0.0,))
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, (0.5, 0.5))
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, (0.5, 2.0))
    grid = TimeGrid.regular(0.0, 1.0, 0.25)
    assert grid.times == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert TimeGrid.from_times((0.0, 5.0)).end == 5.0


def test_walkthrough_trajectory_values():
    program, _ = parse_program(WALKTHROUGH)
    grid = TimeGrid.from_times((0.5, 1.5, 2.5))
    for fast in (True, False):
        traj = sample_trajectory(program, (0.0,), grid, seed=3, fast=fast)
        assert [pt.store[0] for pt in traj.points] == [1.0, 2.0, 3.0]
        assert all(isinstance(pt, Value) for pt in traj.points)


def test_positioning_lands_on_target():
    program, table = parse_file(PROGRAMS / "positioning_exact.swl")
    end = 2 * math.sqrt(3)
    grid = TimeGrid.from_times((0.0, end))
    traj = sample_trajectory(program, make_store(table), grid, seed=1)
    final = traj.points[-1]
    assert isinstance(final, TerminatedEarly)
    assert abs(final.store[table.index("p")] - 3.0) < 1e-9
    assert abs(final.store[table.index("v")]) < 1e-9


def test_error_program_marks_every_point():
    program, _ = parse_program("x := 1/0")
    grid = TimeGrid.from_times((0.0, 1.0, 2.0))
    for fast in (True, False):
        traj = sample_trajectory(program, (0.0,), grid, seed=0, fast=fast)
        assert all(pt == ErrorAt(0.0) for pt in traj.points)


def test_error_marker_persists_from_error_time():
    program, _ = parse_program("x := 0 ; wait 1 ; x := 1/0")
    grid = TimeGrid.from_times((0.5, 1.0, 1.5))
    for fast in (True, False):
        traj = sample_trajectory(program, (0.0,), grid, seed=0, fast=fast)
        assert traj.points[0] == Value((0.0,))
        assert traj.points[1] == ErrorAt(1.0)
        assert traj.points[2] == ErrorAt(1.0)


def test_divergence_marker_persists():
    program, _ = parse_program("x := 0 ; wait 1 ; while tt { x++ }")
    grid = TimeGrid.from_times((0.5, 1.5))
    for fast in (True, False):
        traj = sample_trajectory(program, (0.0,), grid, seed=0, fuel=500, fast=fast)
        assert traj.points[0] == Value((0.0,))
        assert traj.points[1] == Diverged(500)


def test_terminated_early_holds_final_store():
    program, _ = parse_program("x := 5 ; wait 1")
    grid = TimeGrid.from_times((0.5, 1.0, 3.0))
    for fast in (True, False):
        traj = sample_trajectory(program, (0.0,), grid, seed=0, fast=fast)
        assert traj.points[0] == Value((5.0,))
        assert traj.points[1] == TerminatedEarly((5.0,), 1.0)
        assert traj.points[2] == TerminatedEarly((5.0,), 1.0)


def test_fast_agrees_with_canonical_on_corpus():
    # the second grid's last time, 4.8, falls short of its end, 5.0
    grids = (TimeGrid.regular(0.0, 5.0, 0.5), TimeGrid.regular(0.0, 5.0, 0.3))
    for path in program_files():
        program, table = parse_file(path)
        store = make_store(table)
        for grid in grids:
            for seed in (1, 2, 3):
                fast = sample_trajectory(program, store, grid, seed=seed, fast=True)
                slow = sample_trajectory(program, store, grid, seed=seed, fast=False)
                assert fast == slow, (path, grid.times[-1])


def test_fast_agrees_with_canonical_at_fuel_cutoff():
    # fuel counts small-step transitions per grid time in both modes: the
    # run to g=5 takes 19 steps and fits a budget of 20, the run to g=6 takes 22
    program, _ = parse_program(WALKTHROUGH)
    grid = TimeGrid.regular(0.0, 8.0, 1.0)
    fast = sample_trajectory(program, (0.0,), grid, seed=1, fuel=20, fast=True)
    slow = sample_trajectory(program, (0.0,), grid, seed=1, fuel=20, fast=False)
    assert fast == slow
    assert fast.points[4] == Value((5.0,))
    assert fast.points[5] == Value((6.0,))
    assert fast.points[6:] == (Diverged(20),) * 3


def _counting_loop(rng, table):
    """while tt { x++ ; wait d } on the table's first variable."""
    x = Var(0, table.names[0])
    wait = DiffBlock((Lit(0.0),) * len(table), Lit(rng.choice((0.0, 0.25, 0.5, 1.0))))
    return While(BoolLit(True), Seq(Assign(x, Call("+", (x, Lit(1.0)))), wait))


def test_fast_agrees_with_canonical_under_fuel_fuzz():
    rng = random.Random(1123)
    grid = TimeGrid.regular(0.0, 4.0, 0.5)
    seen = set()
    for _ in range(300):
        table = gen_table(rng)
        program = gen_program(rng, table, depth=3)
        if rng.random() < 0.5:
            program = Seq(program, _counting_loop(rng, table))
        store = gen_store(rng, table)
        seed = rng.randrange(2 ** 32)
        # exact flows err on non-affine blocks; a coarse RK4 keeps the fuzz fast
        method = rng.choice((EXACT, RungeKutta4(0.1)))
        for fuel in (1, 2, 3, 5, 8, 13, 20, 40, 200):
            fast = sample_trajectory(program, store, grid, seed, fuel, True, method)
            slow = sample_trajectory(program, store, grid, seed, fuel, False, method)
            assert fast == slow, (program, store, seed, fuel, method)
            seen.update(type(pt) for pt in slow.points)
    assert seen == {Value, TerminatedEarly, ErrorAt, Diverged}


def test_ensembles_are_reproducible():
    program, table = parse_file(PROGRAMS / "ball.swl")
    grid = TimeGrid.regular(0.0, 3.0, 0.5)
    store = make_store(table)
    a = run_ensemble(program, table, store, grid, runs=5, base_seed=9)
    b = run_ensemble(program, table, store, grid, runs=5, base_seed=9)
    assert a.trajectories == b.trajectories
    c = run_ensemble(program, table, store, grid, runs=5, base_seed=10)
    assert a.trajectories != c.trajectories


def test_single_run_ensemble_reduces_to_sample_trajectory():
    from swhile.entropy import split_seed

    program, table = parse_file(PROGRAMS / "ball.swl")
    grid = TimeGrid.regular(0.0, 2.0, 1.0)
    store = make_store(table)
    ens = run_ensemble(program, table, store, grid, runs=1, base_seed=4)
    direct = sample_trajectory(program, store, grid, seed=split_seed(4, 0))
    assert ens.trajectories == (direct,)


def test_parallel_matches_serial():
    program, table = parse_file(PROGRAMS / "ctrw.swl")
    grid = TimeGrid.regular(0.0, 2.0, 0.5)
    store = make_store(table)
    serial = run_ensemble(program, table, store, grid, runs=8, base_seed=1)
    parallel = run_ensemble(program, table, store, grid, runs=8, base_seed=1, workers=2)
    assert serial.trajectories == parallel.trajectories


def test_probability_series_literals():
    program, table = parse_program("x := 0 ; wait 10")
    grid = TimeGrid.regular(0.0, 2.0, 1.0)
    ens = run_ensemble(program, table, (0.0,), grid, runs=4, base_seed=0)
    always = probability_over_time(ens, parse_bool_expr("tt", table))
    assert always.fractions == (1.0, 1.0, 1.0)
    assert always.excluded == (0, 0, 0)
    never = probability_over_time(ens, parse_bool_expr("ff", table))
    assert never.fractions == (0.0, 0.0, 0.0)


def test_probability_counts_error_runs_as_excluded():
    program, table = parse_program("x := 1/0")
    grid = TimeGrid.from_times((0.0, 1.0))
    ens = run_ensemble(program, table, (0.0,), grid, runs=3, base_seed=0)
    series = probability_over_time(ens, parse_bool_expr("tt", table))
    assert series.fractions == (0.0, 0.0)
    assert series.excluded == (3, 3)


def test_probability_undefined_condition_counts_as_false():
    program, table = parse_program("x := 0 ; wait 5")
    grid = TimeGrid.from_times((0.0, 1.0))
    ens = run_ensemble(program, table, (0.0,), grid, runs=3, base_seed=0)
    undefined = parse_bool_expr("1/x <= 1", table)  # 1/0 at every store
    series = probability_over_time(ens, undefined)
    assert series.fractions == (0.0, 0.0)
    assert series.excluded == (0, 0)  # runs are healthy, the guard is not


def test_interval_probability_single_point_reduction():
    program, table = parse_file(PROGRAMS / "timestop.swl")
    grid = TimeGrid.regular(0.0, 3.0, 1.0)
    ens = run_ensemble(program, table, (0.0,), grid, runs=3, base_seed=5)
    cond = parse_bool_expr("2 <= x", table)
    series = probability_over_time(ens, cond)
    single = interval_probability(ens, cond, 2.0, 2.0)
    assert single.fraction == series.fractions[2]
    assert interval_probability(ens, parse_bool_expr("ff", table), 0.0, 3.0).fraction == 0.0
    assert "grid" in single.note
    with pytest.raises(ValueError):
        interval_probability(ens, cond, -1.0, 2.0)


def test_interval_counts_each_run_once():
    program, table = parse_file(PROGRAMS / "timestop.swl")
    grid = TimeGrid.regular(0.0, 4.0, 1.0)
    ens = run_ensemble(program, table, (0.0,), grid, runs=2, base_seed=5)
    # x >= 1 holds at several grid points of every run; each run counts once
    result = interval_probability(ens, parse_bool_expr("1 <= x", table), 1.0, 4.0)
    assert result.satisfying_runs == 2
    assert result.fraction == 1.0


def test_histogram_deterministic_single_bin():
    program, table = parse_program("x := 2 ; wait 5")
    grid = TimeGrid.from_times((0.0, 1.0))
    ens = run_ensemble(program, table, (0.0,), grid, runs=6, base_seed=1)
    hist = histogram(ens, "x", 1.0, bins=5)
    assert sum(hist.counts) == 6
    assert sum(1 for c in hist.counts if c) == 1
    assert hist.excluded == 0


def test_histogram_reports_excluded_runs():
    program, table = parse_program("x := 1/0")
    grid = TimeGrid.from_times((0.0, 1.0))
    ens = run_ensemble(program, table, (0.0,), grid, runs=4, base_seed=1)
    hist = histogram(ens, "x", 0.0, bins=3)
    assert hist.counts == ()
    assert hist.excluded == 4


def test_moments_constant_variable():
    program, table = parse_program("x := 3 ; wait 2")
    grid = TimeGrid.from_times((0.0, 1.0))
    ens = run_ensemble(program, table, (0.0,), grid, runs=5, base_seed=2)
    m = moments(ens, "x", 1.0)
    assert m.mean == 3.0
    assert m.std == 0.0
    assert m.count == 5


def test_moments_accept_a_time_that_rounds_to_a_grid_time():
    program, table = parse_program("x := 0 ; while tt { x++ ; wait 0.1 }")
    grid = TimeGrid.regular(0.0, 1.0, 0.1)
    assert 0.3 not in grid.times
    ens = run_ensemble(program, table, (0.0,), grid, runs=2, base_seed=2)
    assert moments(ens, "x", 0.3) == moments(ens, "x", grid.times[3])
    with pytest.raises(ValueError):
        moments(ens, "x", 0.35)


def test_csv_and_json_export():
    program, table = parse_file(PROGRAMS / "ball.swl")
    grid = TimeGrid.regular(0.0, 1.0, 0.5)
    ens = run_ensemble(program, table, make_store(table), grid, runs=2, base_seed=3)
    buf = io.StringIO()
    write_ensemble_csv(ens, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "run,t,p,v,d,status"
    assert len(lines) == 1 + 2 * 3
    payload = ensemble_json(ens)
    assert payload["variables"] == ["p", "v", "d"]
    assert len(payload["runs"]) == 2
    json.dumps(payload)  # serializable

    series = probability_over_time(ens, parse_bool_expr("0 <= p", table))
    buf2 = io.StringIO()
    write_series_csv(series, buf2)
    assert buf2.getvalue().splitlines()[0] == "t,fraction,excluded"

    hist = histogram(ens, "p", 0.5, bins=2)
    buf3 = io.StringIO()
    write_histogram_csv(hist, buf3)
    assert buf3.getvalue().splitlines()[0] == "bin_left,bin_right,count"
