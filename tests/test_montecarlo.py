import csv
import dataclasses
import io
import json
import math
import random
import warnings

import numpy as np
import pytest

from swhile import frontier, montecarlo
from swhile.montecarlo import (
    DIVERGED,
    VALUE,
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
    write_ensemble_json,
    write_histogram_csv,
    write_series_csv,
)
from swhile.bigstep import eval_big
from swhile.entropy import _value_at, from_seed, split_seed
from swhile.ode import EXACT, RungeKutta4
from swhile.parser import parse_bool_expr, parse_file, parse_program
from swhile.smallstep import DEFAULT_FUEL, Config, Err, Normal, OutOfFuel, TimeStop, _close
from swhile.store import Undefined, eval_bool, make_store
from swhile.syntax import (
    And,
    Assign,
    BoolLit,
    Call,
    DiffBlock,
    If,
    Leq,
    Lit,
    Or,
    Sample,
    Seq,
    Var,
    VarTable,
    While,
)

from genprog import gen_program, gen_store, gen_table
from progpath import PROGRAMS, program_files

WALKTHROUGH = "x := 0 ; while tt { x++ ; wait 1 }"
RK4_STAGE_OVERFLOW = "x := 1.7e308 ; y := 0 ; x' = 1e308, y' = sin(x) for 1"


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


def _regular_times_before(start, end, step):
    """The times `TimeGrid.regular` made before it stopped at its end: every
    start + i * step up to end + 1e-12, each clamped onto end."""
    times = []
    i = 0
    while True:
        t = start + i * step
        if t > end + 1e-12:
            break
        times.append(min(t, end))
        i += 1
    return TimeGrid(start, end, tuple(times)).times


def test_regular_grid_with_a_step_below_the_tolerance_stops_at_its_end():
    # every time in (end, end + 1e-12] was clamped onto end, so a 1e-13 step
    # repeated the end and the grid refused itself
    times = TimeGrid.regular(0.0, 1e-9, 1e-13).times
    assert times[0] == 0.0 and times[-1] == 1e-9 and len(times) == 10001
    with pytest.raises(ValueError, match="strictly increasing"):
        _regular_times_before(0.0, 1e-9, 1e-13)


def test_regular_grid_is_unchanged_for_steps_above_the_tolerance():
    def outcome(make, *args):
        try:
            return make(*args)
        except ValueError as exc:
            return str(exc)

    rng = random.Random(2026)
    clamped = 0
    for _ in range(1500):
        start = rng.choice((0.0, 0.5, 1e-9, rng.uniform(0.0, 100.0)))
        step = rng.choice((0.1, 0.25, 1 / 3, 1e-3, 1.5e-12, rng.uniform(1.01e-12, 1.0),
                           10 ** rng.uniform(-11.9, 0.0)))
        end = start + rng.randint(1, 300) * step + rng.choice(
            (0.0, 1e-13, -1e-13, 5e-13, 2e-12, rng.uniform(-step, step)))
        if not end > start:
            continue
        want = outcome(_regular_times_before, start, end, step)
        assert outcome(lambda: TimeGrid.regular(start, end, step).times) == want
        if isinstance(want, tuple) and start + (len(want) - 1) * step > end:
            clamped += 1
    assert clamped > 50


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


def test_recording_run_stops_after_fuel_steps():
    # a loop that diverges in zero time: only the first fuel + 1 steps matter
    program, _ = parse_program("x := 0 ; while tt { x++ ; x++ ; x++ ; x++ }")
    config = Config(program, (0.0,), 1.0, from_seed(0))
    segments = []
    result = eval_big(config, 500, None, segments)
    assert segments == [(None, None, None, 501)]
    assert result == OutOfFuel(500)
    assert eval_big(config, 500) == OutOfFuel(500)
    grid = TimeGrid.regular(0.0, 1.0, 0.5)
    fast = sample_trajectory(program, (0.0,), grid, seed=0, fuel=500, fast=True)
    slow = sample_trajectory(program, (0.0,), grid, seed=0, fuel=500, fast=False)
    assert fast == slow
    assert fast.points == (Diverged(500),) * 3


def _counting_loop(rng, table):
    """while tt { x++ ; ... ; x++ ; wait d } on the table's first variable."""
    x = Var(0, table.names[0])
    body = DiffBlock((Lit(0.0),) * len(table), Lit(rng.choice((0.0, 0.25, 0.5, 1.0))))
    for _ in range(rng.randint(1, 4)):
        body = Seq(Assign(x, Call("+", (x, Lit(1.0)))), body)
    return While(BoolLit(True), body)


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
    program, table = parse_file(PROGRAMS / "ball.swl")
    grid = TimeGrid.regular(0.0, 2.0, 1.0)
    store = make_store(table)
    ens = run_ensemble(program, table, store, grid, runs=1, base_seed=4)
    direct = sample_trajectory(program, store, grid, seed=split_seed(4, 0))
    assert ens.trajectories == (direct,)


def test_parallel_matches_serial(monkeypatch):
    # a real pool: 512 runs fill two workers' first frontier chunks
    made = []

    class Pool(montecarlo.ProcessPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    program, table = parse_file(PROGRAMS / "ctrw.swl")
    grid = TimeGrid.regular(0.0, 1.0, 1.0)
    store = make_store(table)
    # runs that divide evenly and runs that do not, more workers than CPUs,
    # and more workers than runs
    for runs, workers in ((512, 2), (513, 3), (1, 2)):
        serial = run_ensemble(program, table, store, grid, runs=runs, base_seed=1)
        parallel = run_ensemble(program, table, store, grid, runs=runs, base_seed=1,
                                workers=workers)
        assert serial.trajectories == parallel.trajectories
    assert made == [2, 2]


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a worker pool was started")


def test_parallel_runs_serially_below_one_frontier_chunk_per_worker(monkeypatch):
    # used to start a 2-worker pool for 20 runs, each worker taking 10
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", _NoPool)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    program, table = parse_file(PROGRAMS / "random_walk.swl")
    grid = TimeGrid.regular(0.0, 10.0, 1.0)
    store = make_store(table)
    serial = run_ensemble(program, table, store, grid, runs=20, base_seed=3)
    parallel = run_ensemble(program, table, store, grid, runs=20, base_seed=3, workers=2)
    _assert_same_arrays(serial, parallel)


def test_parallel_rejects_fewer_than_one_worker():
    program, table = parse_file(PROGRAMS / "ctrw.swl")
    grid = TimeGrid.regular(0.0, 2.0, 0.5)
    for workers in (0, -1):
        with pytest.raises(ValueError):
            run_ensemble(program, table, make_store(table), grid, runs=4, base_seed=5,
                         workers=workers)


def _oracle_holds(ens, cond):
    """Per run and grid time: the condition by `eval_bool` at the point's
    store, False where it is undefined or the point has no store."""
    def holds(kind, store):
        if kind > montecarlo.TERMINATED:
            return False
        try:
            return eval_bool(cond, tuple(store))
        except Undefined:
            return False

    return [[holds(k, s) for k, s in zip(kinds, stores)]
            for kinds, stores in zip(ens.kinds.tolist(), ens.stores.tolist())]


def _assert_stats_match_eval_bool(ens, cond):
    """The series and some intervals equal a per-point `eval_bool` count."""
    holds, n = _oracle_holds(ens, cond), len(ens.seeds)
    with_store = (ens.kinds <= montecarlo.TERMINATED).tolist()
    series = probability_over_time(ens, cond)
    assert series.fractions == tuple(sum(column) / n for column in zip(*holds))
    assert series.excluded == tuple(n - sum(column) for column in zip(*with_store))
    assert all(type(f) is float for f in series.fractions)
    times = ens.grid.times
    last = len(times) - 1
    for i, j in ((0, last), (last // 2, last // 2), (1, last), (0, last // 2)):
        result = interval_probability(ens, cond, times[i], times[j])
        hits = sum(any(row[i:j + 1]) for row in holds)
        assert (result.satisfying_runs, result.fraction, result.runs) == (hits, hits / n, n)
        assert result.excluded == sum(not any(row[i:j + 1]) for row in with_store)
    return series


def test_probability_series_literals():
    program, table = parse_program("x := 0 ; wait 10")
    grid = TimeGrid.regular(0.0, 2.0, 1.0)
    ens = run_ensemble(program, table, (0.0,), grid, runs=4, base_seed=0)
    always = _assert_stats_match_eval_bool(ens, parse_bool_expr("tt", table))
    assert always.fractions == (1.0, 1.0, 1.0)
    assert always.excluded == (0, 0, 0)
    never = _assert_stats_match_eval_bool(ens, parse_bool_expr("ff", table))
    assert never.fractions == (0.0, 0.0, 0.0)


def test_probability_counts_error_runs_as_excluded():
    program, table = parse_program("x := 1/0")
    grid = TimeGrid.from_times((0.0, 1.0))
    ens = run_ensemble(program, table, (0.0,), grid, runs=3, base_seed=0)
    series = _assert_stats_match_eval_bool(ens, parse_bool_expr("tt", table))
    assert series.fractions == (0.0, 0.0)
    assert series.excluded == (3, 3)


def test_probability_undefined_condition_counts_as_false():
    program, table = parse_program("x := 0 ; wait 5")
    grid = TimeGrid.from_times((0.0, 1.0))
    ens = run_ensemble(program, table, (0.0,), grid, runs=3, base_seed=0)
    undefined = parse_bool_expr("1/x <= 1", table)  # 1/0 at every store
    series = _assert_stats_match_eval_bool(ens, undefined)
    assert series.fractions == (0.0, 0.0)
    assert series.excluded == (0, 0)  # runs are healthy, the guard is not


# stores that make parts of a condition undefined: zeros of both signs,
# negatives under ln and sqrt, and x = 710 or 1e16, where exp overflows
_AWKWARD = (0.0, -0.0, 1.0, -1.0, 0.1 + 0.2, 1e16, 1e-05, 710.0, -2.5, 4.0)


def _awkward_ensemble(runs, times, seed):
    """An ensemble over (x, y, z) of every outcome kind, with awkward and
    random stores; NaN where a point carries no store, as `run_ensemble`
    leaves it."""
    rng = random.Random(seed)
    _, table = parse_program("x := 0 ; y := 0 ; z := 0")
    grid = TimeGrid.from_times(times)
    shape = (runs, len(times))
    kinds = np.array(rng.choices(range(4), weights=(6, 2, 1, 1), k=runs * len(times)),
                     dtype=np.int8).reshape(shape)
    stores = np.array([rng.choice(_AWKWARD) if rng.random() < 0.6 else rng.uniform(-3, 3)
                       for _ in range(kinds.size * 3)]).reshape(*shape, 3)
    stores[kinds > montecarlo.TERMINATED] = np.nan
    seeds = tuple(range(runs))
    return montecarlo.Ensemble(table, grid, 0, DEFAULT_FUEL, seeds,
                               kinds, stores, np.full(shape, np.nan))


@pytest.mark.parametrize("text", [
    "1 / x <= 1",  # division by zero, of either sign
    "ln(x) <= 1", "sqrt(y) <= 2", "exp(x) <= 5 || exp(z) <= 1",  # domain errors, overflow
    "tt || 1 / x <= 0", "ff && ln(y) <= 0",  # an undefined operand poisons And and Or
    "x <= y && (ln(z) <= 0 || sqrt(-x) <= 1)",
    "tt", "ff", "ln(0) <= 1", "1 <= 2",  # constant conditions, one of them undefined
    "y <= x * 1e300",  # overflow to inf
])
def test_statistics_equal_a_per_point_eval_bool(text):
    ens = _awkward_ensemble(40, (0.0, 0.25, 0.1 + 0.2, 1.0, 2.0, 5.0), seed=len(text))
    assert set(ens.kinds.ravel().tolist()) == {0, 1, 2, 3}
    _assert_stats_match_eval_bool(ens, parse_bool_expr(text, ens.table))


def test_statistics_equal_a_per_point_eval_bool_on_simulated_runs():
    # terminated (positioning_exact) and diverged (ball under little fuel) rows
    for name, fuel, text, kind in (
            ("positioning_exact", DEFAULT_FUEL, "ln(p - 1) <= 0.5", montecarlo.TERMINATED),
            ("ball", 40, "ln(p) <= 2.2 || sqrt(v) <= 1", DIVERGED)):
        program, table = parse_file(PROGRAMS / f"{name}.swl")
        grid = TimeGrid.regular(0.0, 5.0, 0.25)
        ens = run_ensemble(program, table, make_store(table), grid, runs=20, base_seed=4,
                           fuel=fuel)
        assert kind in ens.kinds
        _assert_stats_match_eval_bool(ens, parse_bool_expr(text, table))


def test_interval_probability_single_point_reduction():
    program, table = parse_file(PROGRAMS / "timestop.swl")
    grid = TimeGrid.regular(0.0, 3.0, 1.0)
    ens = run_ensemble(program, table, (0.0,), grid, runs=3, base_seed=5)
    cond = parse_bool_expr("2 <= x", table)
    series = _assert_stats_match_eval_bool(ens, cond)
    single = interval_probability(ens, cond, 2.0, 2.0)
    assert single.fraction == series.fractions[2]
    assert interval_probability(ens, parse_bool_expr("ff", table), 0.0, 3.0).fraction == 0.0
    assert "grid" in single.note
    with pytest.raises(ValueError):
        interval_probability(ens, cond, -1.0, 2.0)


def test_interval_holding_no_grid_time_is_an_error():
    # used to report every run as excluded although none erred or diverged
    program, table = parse_file(PROGRAMS / "ball.swl")
    grid = TimeGrid.regular(0.0, 1.0, 0.5)
    ens = run_ensemble(program, table, make_store(table), grid, runs=5, base_seed=1)
    cond = parse_bool_expr("p <= 0", table)
    with pytest.raises(ValueError, match="holds no grid time"):
        interval_probability(ens, cond, 0.1, 0.2)
    assert interval_probability(ens, cond, 0.1, 0.5).excluded == 0


def test_interval_with_grid_time_endpoints_keeps_exactly_those_times():
    # the grid's step, 1e-13, is below the match's 1e-12 absolute tolerance:
    # an exact endpoint must not widen onto its neighbours
    grid = TimeGrid.regular(0.0, 1e-9, 1e-13)
    times = grid.times
    assert list(montecarlo.interval_indices(grid, times[5], times[9])) == [5, 6, 7, 8, 9]
    assert list(montecarlo.interval_indices(grid, times[7], times[7])) == [7]


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


def test_histogram_refuses_more_bins_than_the_maximum(monkeypatch):
    program, table = parse_program("x := 2 ; wait 5")
    ens = run_ensemble(program, table, (0.0,), TimeGrid.from_times((0.0, 1.0)), runs=3, base_seed=1)
    with pytest.raises(ValueError, match="at most 1000000 bins"):
        histogram(ens, "x", 1.0, bins=10 ** 12)  # numpy would allocate 7.28 TiB first
    monkeypatch.setattr(montecarlo, "MAX_HISTOGRAM_BINS", 4)
    assert len(histogram(ens, "x", 1.0, bins=4).counts) == 4
    with pytest.raises(ValueError, match="at most 4 bins"):
        histogram(ens, "x", 1.0, bins=5)


def test_moments_constant_variable():
    program, table = parse_program("x := 3 ; wait 2")
    grid = TimeGrid.from_times((0.0, 1.0))
    ens = run_ensemble(program, table, (0.0,), grid, runs=5, base_seed=2)
    m = moments(ens, "x", 1.0)
    assert m.mean == 3.0
    assert m.std == 0.0
    assert m.count == 5


def _quiet_moments(ens, variable, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return moments(ens, variable, t)


def test_moments_of_values_near_the_largest_float_are_finite():
    # y = +-1.7e308: the plain sum and squares overflow, and numpy gave
    # mean = std = inf with two RuntimeWarnings
    a = 1.7e308
    program, table = parse_program(f"x := unif(0, 1) ; if x <= 0.5 then {{ y := {a!r} }} "
                                   f"else {{ y := {-a!r} }} ; wait 1")
    grid = TimeGrid.from_times((0.0, 1.0))
    ens = run_ensemble(program, table, (0.0, 0.0), grid, runs=8, base_seed=1)
    values = ens.stores[:, 1, table.index("y")].tolist()
    up, down = values.count(a), values.count(-a)
    assert up + down == 8 and up and down
    m = _quiet_moments(ens, "y", 1.0)
    assert m.count == 8
    # the mean is a (up - down) / n and the std 2 a sqrt(up down / (n (n - 1)))
    assert math.isclose(m.mean, a / 8 * (up - down), rel_tol=1e-15)
    assert math.isclose(m.std, a * (2 * math.sqrt(up * down / 56)), rel_tol=1e-15)
    # one value: its own mean, with std 0; a and -a: mean 0 and std a sqrt(2),
    # beyond the largest float
    for seed, ys, want in ((1, [a], (a, 0.0)), (2, [a, -a], (0.0, math.inf))):
        ens = run_ensemble(program, table, (0.0, 0.0), grid, runs=len(ys), base_seed=seed)
        assert ens.stores[:, 1, table.index("y")].tolist() == ys
        m = _quiet_moments(ens, "y", 1.0)
        assert (m.mean, m.std, m.count) == (*want, len(ys))


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
    buf = io.StringIO()
    write_ensemble_json(ens, buf)
    assert buf.getvalue() == json.dumps(payload, sort_keys=True) + "\n"

    series = probability_over_time(ens, parse_bool_expr("0 <= p", table))
    buf2 = io.StringIO()
    write_series_csv(series, buf2)
    assert buf2.getvalue().splitlines()[0] == "t,fraction,excluded"

    hist = histogram(ens, "p", 0.5, bins=2)
    buf3 = io.StringIO()
    write_histogram_csv(hist, buf3)
    assert buf3.getvalue().splitlines()[0] == "bin_left,bin_right,count"


def _json_text(ens):
    buf = io.StringIO()
    write_ensemble_json(ens, buf)
    return buf.getvalue()


def test_ensemble_json_writer_matches_dumps():
    # the streamed writer against the one-piece encoding of ensemble_json
    grid = TimeGrid.regular(0.0, 3.0, 0.5)
    for path in program_files():
        program, table = parse_file(path)
        ens = run_ensemble(program, table, make_store(table), grid, runs=3, base_seed=5, fuel=60)
        assert _json_text(ens) == json.dumps(ensemble_json(ens), sort_keys=True) + "\n", path
    # floats json spells its own way, and -0.0, in stores and event times
    stores = ens.stores.copy()
    stores[0, :4, 0] = (math.nan, math.inf, -math.inf, -0.0)
    odd = dataclasses.replace(ens, kinds=np.zeros_like(ens.kinds), stores=stores)
    text = _json_text(odd)
    assert text == json.dumps(ensemble_json(odd), sort_keys=True) + "\n"
    for spelled in ("NaN", "Infinity", "-Infinity", "-0.0"):
        assert f'"store": [{spelled}' in text



def _csv_writer_oracle(ensemble, fh):
    """The ensemble CSV as csv.writer writes it, a cell at a time."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["run", "t", *ensemble.table.names, "status"])
    blank = [""] * len(ensemble.table)
    status = ("ok", "terminated", "error", "diverged")
    for run, (kinds, stores) in enumerate(zip(ensemble.kinds.tolist(),
                                              ensemble.stores.tolist())):
        writer.writerows(
            [run, t, *(store if kind <= montecarlo.TERMINATED else blank), status[kind]]
            for t, kind, store in zip(ensemble.grid.times, kinds, stores))


def test_csv_cells_are_the_repr_of_each_float():
    awkward = (0.1 + 0.2, 1e16, 1e-05, -0.0)
    _, table = parse_program("x := 0 ; y := 0")
    grid = TimeGrid.from_times((-0.0, 0.1 + 0.2, 1e16))
    kinds = np.array([[VALUE, montecarlo.TERMINATED, montecarlo.ERROR],
                      [montecarlo.TERMINATED, VALUE, DIVERGED]], dtype=np.int8)
    stores = np.array(awkward * 3).reshape(2, 3, 2)
    stores[kinds > montecarlo.TERMINATED] = np.nan
    ens = montecarlo.Ensemble(table, grid, 0, DEFAULT_FUEL, (5, 6), kinds,
                              stores, np.full((2, 3), np.nan))
    buf = io.StringIO()
    write_ensemble_csv(ens, buf)
    status = ("ok", "terminated", "error", "diverged")
    want = [[str(r), repr(t), *([repr(v) for v in stores[r, p].tolist()]
                                if kinds[r, p] <= montecarlo.TERMINATED else ["", ""]),
             status[kinds[r, p]]]
            for r in range(2) for p, t in enumerate(grid.times)]
    assert list(csv.reader(io.StringIO(buf.getvalue())))[1:] == want
    oracle = io.StringIO()
    _csv_writer_oracle(ens, oracle)
    assert buf.getvalue() == oracle.getvalue()

    # more runs than one export chunk holds: run numbers go on across chunks
    big = _awkward_ensemble(250, (-0.0, 1e-05, 0.1 + 0.2, *range(1, 198), 1e16), seed=3)
    assert montecarlo._chunk_runs(big.stores) < 250 // 2
    buf, oracle = io.StringIO(), io.StringIO()
    write_ensemble_csv(big, buf)
    _csv_writer_oracle(big, oracle)
    # the first differing line, not a diff of 50 000 lines
    lines, want = buf.getvalue().splitlines(True), oracle.getvalue().splitlines(True)
    assert next(((i, a, b) for i, (a, b) in enumerate(zip(lines, want)) if a != b), None) is None
    assert len(lines) == len(want) == 1 + 250 * 201
    assert lines[-1].startswith("249,1e+16,")

    buf = io.StringIO()
    write_series_csv(montecarlo.ProbabilitySeries(grid.times, awkward[::2], (0, 1)), buf)
    assert list(csv.reader(io.StringIO(buf.getvalue())))[1:] == [
        [repr(t), repr(f), str(n)] for t, f, n in zip(grid.times, awkward[::2], (0, 1))]

    buf = io.StringIO()
    edges = tuple(sorted(awkward))
    write_histogram_csv(montecarlo.HistogramResult((1, 2, 3), edges, 4), buf)
    assert list(csv.reader(io.StringIO(buf.getvalue())))[1:] == [
        *([repr(a), repr(b), str(n)] for a, b, n in zip(edges, edges[1:], (1, 2, 3))),
        ["excluded", "", "4"]]


# --- the array reader against the canonical rerun, point by point -----------

def _canonical_point(program, store0, g, seed, fuel, flow_method):
    result, _, last = _close(Config(program, store0, g, from_seed(seed)), fuel, flow_method)
    rt = type(result)
    if rt is TimeStop:
        return Value(result.store)
    if rt is Normal:
        return TerminatedEarly(result.store, g - result.t)
    if rt is Err:
        return ErrorAt(g - last.t)
    return Diverged(fuel)


def _assert_reader_matches_canonical(program, store, grid, seed, fuel=DEFAULT_FUEL, method=None):
    """Array fast mode equals `_canonical_point` at every grid time; returns
    the outcome types seen."""
    traj = sample_trajectory(program, store, grid, seed, fuel, True, method)
    for g, pt in zip(grid.times, traj.points):
        assert pt == _canonical_point(program, store, g, seed, fuel, method), (g, program, seed)
    return {type(pt) for pt in traj.points}


def test_array_reader_matches_canonical_on_every_bundled_program():
    grids = (TimeGrid.regular(0.0, 6.0, 0.25), TimeGrid.from_times((0.0, 0.7, 3.3, 6.0)))
    for path in program_files() + [PROGRAMS.parent / "bench" / "pendulum.swl"]:
        program, table = parse_file(path)
        method = RungeKutta4(0.05) if path.stem == "pendulum" else None
        for grid in grids:
            for seed in (1, 5):
                for fuel in (DEFAULT_FUEL, 25):
                    _assert_reader_matches_canonical(program, make_store(table), grid, seed,
                                                     fuel, method)


def test_array_reader_matches_canonical_on_the_generated_corpus():
    rng = random.Random(31337)
    grid = TimeGrid.regular(0.0, 3.0, 0.5)
    seen = set()
    for _ in range(200):
        table = gen_table(rng)
        program = gen_program(rng, table, depth=3)
        if rng.random() < 0.5:
            program = Seq(program, _counting_loop(rng, table))
        store = gen_store(rng, table)
        # exact flows err on non-affine blocks; a coarse RK4 keeps the corpus fast
        method = rng.choice((EXACT, RungeKutta4(0.1)))
        fuel = rng.choice((1, 2, 5, 13, 40, 200))
        seen |= _assert_reader_matches_canonical(program, store, grid, rng.randrange(2 ** 32),
                                                 fuel, method)
    assert seen == {Value, TerminatedEarly, ErrorAt, Diverged}


def test_array_reader_fuel_cut_inside_and_after_the_recording():
    program, _ = parse_program(WALKTHROUGH)
    grid = TimeGrid.regular(0.0, 8.0, 0.5)
    for fuel in range(1, 30):  # the cut moves through the recorded segments
        _assert_reader_matches_canonical(program, (0.0,), grid, 1, fuel)
    # past the end of a run that stopped recording at its fuel
    program, _ = parse_program("x := 0 ; wait 1 ; x := 1 ; while tt { x++ }")
    grid = TimeGrid.from_times((0.5, 1.0, 2.0))
    kinds = _assert_reader_matches_canonical(program, (0.0,), grid, 0, 50)
    assert kinds == {Value, Diverged}


def test_array_reader_erring_flow_before_and_past_its_segment_end():
    # x' = x * x blows up before t = 1 under RK4: grid times inside the
    # segment flow (and may err), grid times past its end err at its start
    program, _ = parse_program("x := 1 ; wait 0.5 ; x' = x * x for 2 ; x := 0")
    grid = TimeGrid.regular(0.0, 4.0, 0.125)
    traj = sample_trajectory(program, (0.0,), grid, 0, flow_method=RungeKutta4(0.01))
    assert traj.points[4] == Value((1.0,))  # t = 0.5, the segment's start
    assert traj.points[-1] == ErrorAt(0.5)  # past the segment's end
    kinds = _assert_reader_matches_canonical(program, (0.0,), grid, 0, method=RungeKutta4(0.01))
    assert kinds == {Value, ErrorAt}


def test_array_reader_non_finite_nilpotent_flow():
    # p' = v, v' = x with x = 1e308: v overflows once t > 1
    program, table = parse_program("p' = v, v' = x for 10 ; x := 0")
    store = [0.0] * len(table)
    store[table.index("x")] = 1e308
    grid = TimeGrid.regular(0.0, 12.0, 0.5)
    traj = sample_trajectory(program, tuple(store), grid, 0)
    assert isinstance(traj.points[3], Value) and traj.points[4] == ErrorAt(0.0)
    assert _assert_reader_matches_canonical(program, tuple(store), grid, 0) == {Value, ErrorAt}


def test_array_reader_alternating_blocks_and_many_points_per_segment():
    program, table = parse_file(PROGRAMS / "cruise_uniform.swl")  # two blocks alternate
    grid = TimeGrid.regular(0.0, 4.0, 0.02)  # fifty grid times per segment
    for seed in (2, 3):
        _assert_reader_matches_canonical(program, make_store(table), grid, seed)
    program, _ = parse_program("x := 0 ; x' = 1 for 5 ; x := 10")
    grid = TimeGrid.regular(0.0, 7.0, 0.01)  # grid times after normal termination
    traj = sample_trajectory(program, (0.0,), grid, 0)
    assert traj.points[-1] == TerminatedEarly((10.0,), 5.0)
    assert _assert_reader_matches_canonical(program, (0.0,), grid, 0) == {Value, TerminatedEarly}


def test_array_reader_chunks_are_bounded_by_segments_and_points(monkeypatch):
    # brownian over 0:30:15 records about 60 segments per run on 3 points:
    # a chunk closes when runs x max(points, segments) would pass the cells
    program, table = parse_file(PROGRAMS / "brownian.swl")
    grid = TimeGrid.regular(0.0, 30.0, 15.0)
    store = make_store(table)
    whole = run_ensemble(program, table, store, grid, runs=12, base_seed=4)
    chunks = []
    read = montecarlo._read_recorded

    def recorded(chunk, *args):
        chunks.append((len(chunk.counts), chunk.widest))
        return read(chunk, *args)

    monkeypatch.setattr(montecarlo, "_read_recorded", recorded)
    monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", 200)
    monkeypatch.setattr(montecarlo, "_CHAIN_CELLS", 40)
    chunked = run_ensemble(program, table, store, grid, runs=12, base_seed=4)
    _assert_same_arrays(chunked, whole)
    assert sum(n for n, _ in chunks) == 12 and len(chunks) > 3
    assert all(n * widest <= 200 for n, widest in chunks)
    monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", 30)  # every run alone passes it
    chunks.clear()
    _assert_same_arrays(run_ensemble(program, table, store, grid, runs=12, base_seed=4), whole)
    assert [n for n, _ in chunks] == [1] * 12


def _frontier_passes(monkeypatch, path, grid, runs):
    """The runs of each frontier pass, and the eval_big calls, that fast mode
    takes on `runs` runs; its arrays equal those of one eval_big per run."""
    program, table = parse_file(PROGRAMS / path)
    store = make_store(table)
    passes, calls = [], []
    record, big = frontier.record, montecarlo.eval_big

    def counted_record(program, store, t, seeds, *args):
        passes.append(len(seeds))
        return record(program, store, t, seeds, *args)

    def counted_big(*args):
        calls.append(1)
        return big(*args)

    monkeypatch.setattr(frontier, "record", counted_record)
    monkeypatch.setattr(montecarlo, "eval_big", counted_big)
    ens = run_ensemble(program, table, store, grid, runs=runs, base_seed=6)
    found = passes.copy(), len(calls)
    monkeypatch.setattr(montecarlo, "FRONTIER_MIN_RUNS", 10 ** 9)
    _assert_same_arrays(ens, run_ensemble(program, table, store, grid, runs=runs, base_seed=6))
    return found


def test_a_grid_of_more_than_4096_points_is_recorded_per_run(monkeypatch):
    # a frontier chunk holds at most _CHUNK_CELLS // points runs, fewer than
    # FRONTIER_MIN_RUNS past 4 096 points
    grid = TimeGrid.regular(0.0, 2.0, 0.0005)
    assert len(grid.times) == 4001
    assert _frontier_passes(monkeypatch, "ball.swl", grid, 20) == ([20], 0)
    grid = TimeGrid.regular(0.0, 2.0, 0.0004)
    assert len(grid.times) == 5001
    assert _frontier_passes(monkeypatch, "ball.swl", grid, 20) == ([], 20)


def test_runs_left_after_a_wide_frontier_pass_are_recorded_per_run(monkeypatch):
    # brownian to t = 30 records more than 60 segments per run, so after the
    # first 16-run pass no 16 runs fit in 960 cells: the other 24 runs are
    # recorded with eval_big and read from run 16 on
    monkeypatch.setattr(montecarlo, "_FRONTIER_FIRST", 16)
    monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", 960)
    grid = TimeGrid.regular(0.0, 30.0, 15.0)
    assert _frontier_passes(monkeypatch, "brownian.swl", grid, 40) == ([16], 24)


def _assert_same_arrays(a, b):
    assert np.array_equal(a.kinds, b.kinds)
    assert np.array_equal(a.stores, b.stores, equal_nan=True)
    assert np.array_equal(a.event_times, b.event_times, equal_nan=True)
    assert a.seeds == b.seeds


def test_parallel_arrays_and_views_equal_serial(monkeypatch):
    _FakePool.made = []
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    program, table = parse_file(PROGRAMS / "ball.swl")
    grid = TimeGrid.regular(0.0, 5.0, 0.5)
    store = make_store(table)
    for fast in (True, False):
        serial = run_ensemble(program, table, store, grid, runs=513, base_seed=8, fuel=60,
                              fast=fast)
        parallel = run_ensemble(program, table, store, grid, runs=513, base_seed=8, fuel=60,
                                fast=fast, workers=2)
        _assert_same_arrays(serial, parallel)
        assert serial.trajectories == parallel.trajectories
        again = run_ensemble(program, table, store, grid, runs=513, base_seed=8, fuel=60,
                             fast=fast)
        assert again.trajectories == serial.trajectories
    assert [[len(t[3]) for t in pool.tasks] for pool in _FakePool.made] == [[256, 257]] * 2


def test_arrays_agree_between_modes():
    program, table = parse_file(PROGRAMS / "ctrw_counting.swl")
    grid = TimeGrid.regular(0.0, 4.0, 0.5)
    store = make_store(table)
    fast = run_ensemble(program, table, store, grid, runs=4, base_seed=3, fuel=30)
    canonical = run_ensemble(program, table, store, grid, runs=4, base_seed=3, fuel=30,
                             fast=False)
    _assert_same_arrays(fast, canonical)
    assert set(fast.kinds.ravel().tolist()) == {VALUE, DIVERGED}


class _FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        _FakePool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        self.tasks = list(tasks)
        return map(fn, self.tasks)


def _assert_fan_out(monkeypatch, runs, workers, want):
    """`want` workers (None: serial) over 3 available CPUs, same arrays."""
    _FakePool.made = []
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 2, 5})
    program, table = parse_file(PROGRAMS / "ctrw.swl")
    grid = TimeGrid.regular(0.0, 2.0, 0.5)
    store = make_store(table)
    ens = run_ensemble(program, table, store, grid, runs=runs, base_seed=1, workers=workers)
    if want is None:
        assert _FakePool.made == []
    else:
        (pool,) = _FakePool.made
        assert pool.max_workers == want == len(pool.tasks)
        assert [len(t[3]) for t in pool.tasks] == [
            runs * (i + 1) // want - runs * i // want for i in range(want)]
    _assert_same_arrays(ens, run_ensemble(program, table, store, grid, runs=runs, base_seed=1))


@pytest.mark.parametrize("workers, want", [(10000, 3), (3, 3), (2, 2), (1, None)])
def test_workers_are_capped_at_the_available_cpus(monkeypatch, workers, want):
    _assert_fan_out(monkeypatch, 1000, workers, want)


@pytest.mark.parametrize("runs, want", [(767, 2), (511, None)])
def test_workers_are_capped_at_one_per_frontier_chunk(monkeypatch, runs, want):
    _assert_fan_out(monkeypatch, runs, 10000, want)


def test_worker_chunks_differ_by_at_most_one_run(monkeypatch):
    # ceil(runs / P) runs a chunk used to leave the last worker 8 runs here,
    # too few for a frontier pass
    _FakePool.made = []
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(250)),
                        raising=False)

    def unread(task):  # arrays of the right shape, nothing recorded
        _, store0, grid, seeds = task[:4]
        shape = (len(seeds), len(grid.times))
        return np.zeros(shape, np.int8), np.zeros((*shape, len(store0))), np.zeros(shape)

    monkeypatch.setattr(montecarlo, "_read_task", unread)
    program, table = parse_file(PROGRAMS / "ctrw.swl")
    grid = TimeGrid.from_times((0.0, 1.0))
    ens = run_ensemble(program, table, make_store(table), grid, runs=64001, base_seed=1,
                       workers=250)
    (pool,) = _FakePool.made
    sizes = [len(t[3]) for t in pool.tasks]
    assert len(sizes) == pool.max_workers == 250
    assert sorted(set(sizes)) == [256, 257]
    assert tuple(seed for t in pool.tasks for seed in t[3]) == ens.seeds
    assert ens.kinds.shape == (64001, 2)


def test_workers_fall_back_to_the_cpu_count(monkeypatch):
    _FakePool.made = []
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", _FakePool)
    monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
    program, table = parse_file(PROGRAMS / "ctrw.swl")
    grid = TimeGrid.regular(0.0, 2.0, 0.5)
    run_ensemble(program, table, make_store(table), grid, runs=1024, base_seed=1, workers=10000)
    assert [pool.max_workers for pool in _FakePool.made] == [4]


def test_array_reader_accepts_integer_grid_times():
    # TimeGrid.regular keeps integer arguments as integer times
    program, table = parse_file(PROGRAMS / "ctrw_counting.swl")
    grid = TimeGrid.regular(0, 6, 1)
    assert grid.times == (0, 1, 2, 3, 4, 5, 6)
    for seed in (1, 2):
        _assert_reader_matches_canonical(program, make_store(table), grid, seed)


def test_rk4_stage_overflow_is_an_error_point_in_every_mode(monkeypatch):
    # a stage store overflowing into sin(x) used to escape as a ValueError;
    # 2 runs record with eval_big, 20 with one frontier pass
    program, table = parse_program(RK4_STAGE_OVERFLOW)
    store, grid, method = (0.0, 0.0), TimeGrid.regular(0.0, 2.0, 1.0), RungeKutta4(1.0)
    kinds = _assert_reader_matches_canonical(program, store, grid, 1, method=method)
    assert kinds == {Value, ErrorAt}
    for runs in (2, 20):
        ens = run_ensemble(program, table, store, grid, runs, 1, flow_method=method)
        assert (ens.kinds[:, 1:] == montecarlo.ERROR).all()
        canonical = run_ensemble(program, table, store, grid, runs, 1, fast=False,
                                 flow_method=method)
        _assert_same_arrays(ens, canonical)
        outcomes = _assert_recorder_matches_eval_big(monkeypatch, program, table, store, grid,
                                                     DEFAULT_FUEL, method, runs)
        assert outcomes == {frontier.OPEN}


# --- the frontier recorder against eval_big -----------------------------------

def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _recordings_equal(a, b):
    """Two Recordings hold the same segments, outcomes and stores, bit for bit."""
    assert [a.blocks[k] for k in a.segment_blocks] == [b.blocks[k] for k in b.segment_blocks]
    assert np.array_equal(_bits(a.entries), _bits(b.entries))
    assert np.array_equal(_bits(a.durations), _bits(b.durations))
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert np.array_equal(_bits(a.finals), _bits(b.finals))


def _eval_big_recording(program, store, t, seeds, fuel, method):
    runs = []
    for seed in seeds:
        segments = []
        result = eval_big(Config(program, store, t, from_seed(seed)), fuel, method, segments)
        runs.append((result, segments))
    return frontier.Recording.of_runs(runs, len(store))


def _assert_recorder_matches_eval_big(monkeypatch, program, table, store, grid, fuel,
                                      method=None, runs=24):
    """The frontier's recording and ensemble arrays equal eval_big's."""
    seeds = [split_seed(5, i) for i in range(runs)]
    want = _eval_big_recording(program, store, grid.times[-1], seeds, fuel, method)
    _recordings_equal(frontier.record(program, store, grid.times[-1], seeds, fuel, method), want)
    monkeypatch.setattr(montecarlo, "FRONTIER_MIN_RUNS", 10 ** 9)
    per_run = run_ensemble(program, table, store, grid, runs, 5, fuel, flow_method=method)
    monkeypatch.setattr(montecarlo, "FRONTIER_MIN_RUNS", 1)
    _assert_same_arrays(run_ensemble(program, table, store, grid, runs, 5, fuel,
                                     flow_method=method), per_run)
    return set(want.outcomes.tolist())


_X, _U, _Y = Var(0, "x"), Var(1, "u"), Var(2, "y")
_TABLE = VarTable(("x", "u", "y"))


def _call(op, *args):
    return Call(op, tuple(Lit(a) if isinstance(a, float) else a for a in args))


def _sampled(*statements):
    """u := unif(0, 1) ; statements... ; wait 1 ; x := x + 1, so runs part ways."""
    program = Seq(Assign(_X, _call("+", _X, 1.0)), DiffBlock((Lit(0.0),) * 3, Lit(1.0)))
    for statement in reversed(statements):
        program = Seq(statement, program)
    return Seq(Sample(_U), program)


def _half(statement, other):
    """`statement` on the runs with u <= 1/2, `other` on the rest."""
    return If(Leq(_U, Lit(0.5)), statement, other)


def test_recorder_matches_eval_big_on_undefined_values(monkeypatch):
    big = _call("*", _U, 2000.0)  # above 709.78 on most runs: exp overflows
    undefined = [
        _call("/", 0.0, 0.0), _call("ln", 0.0), _call("ln", -0.0), _call("sqrt", -0.0),
        _call("*", 1e308, 10.0), _call("sin", 1e300),
        _call("/", _U, _call("-", _U, _U)), _call("ln", _call("neg", _call("*", _U, 0.0))),
        _call("sqrt", _call("neg", _call("*", _U, 0.0))), _call("*", _call("*", _U, 1e308), 10.0),
        _call("sin", _call("*", _U, 1e300)), _call("cos", _call("*", _U, 1e300)),
        _call("exp", big), _call("/", 1.0, _call("exp", big)),
        _call("ln", _call("-", _U, 0.5)), _call("sqrt", _call("-", _U, 0.5)),
    ]
    grid = TimeGrid.regular(0.0, 3.0, 0.5)
    store = (0.0, 0.0, 0.0)
    seen = set()
    for e in undefined:
        programs = [
            _sampled(_half(Assign(_Y, e), Assign(_Y, _U))),
            _sampled(Assign(_Y, e)),
            # in a guard, and in a duration
            _sampled(If(Leq(e, Lit(0.5)), Assign(_Y, Lit(1.0)), Assign(_Y, Lit(2.0)))),
            _sampled(DiffBlock((Lit(1.0), Lit(0.0), Lit(0.0)), e)),
            # e <= y || y <= e holds wherever e is defined: four rounds
            _sampled(While(And(Leq(_Y, Lit(3.0)), Or(Leq(e, _Y), Leq(_Y, e))),
                           Assign(_Y, _call("+", _Y, 1.0)))),
        ]
        for program in programs:
            for fuel in (3, 10 ** 6):
                seen |= _assert_recorder_matches_eval_big(monkeypatch, program, _TABLE, store,
                                                          grid, fuel)
    assert seen == {frontier.NORMAL, frontier.OPEN, frontier.ERR, frontier.CUT}


def test_recorder_matches_eval_big_on_strict_connectives_and_signed_zeros(monkeypatch):
    undefined = Leq(_call("/", 1.0, _call("-", _U, _U)), Lit(0.0))
    guards = [Or(Leq(_U, Lit(2.0)), undefined), And(BoolLit(False), undefined),
              Or(Leq(_U, Lit(0.5)), And(Leq(_U, Lit(0.25)), undefined)),
              And(Leq(_U, Lit(0.5)), BoolLit(True))]
    grid = TimeGrid.regular(0.0, 3.0, 0.5)
    for guard, errs in zip(guards, (True, True, True, False)):
        program = _sampled(If(guard, Assign(_Y, Lit(1.0)), Assign(_Y, Lit(2.0))))
        seen = _assert_recorder_matches_eval_big(monkeypatch, program, _TABLE, (0.0,) * 3,
                                                 grid, 10 ** 6)
        assert (frontier.ERR in seen) == errs
    # -0.0 in the store, through a halted block, a zero-duration flow and neg
    zero = (-0.0, -0.0, -0.0)
    programs = [
        _sampled(DiffBlock((Lit(0.0),) * 3, Lit(0.5)), Assign(_Y, _call("neg", _Y))),
        _sampled(DiffBlock((Lit(1.0), Lit(0.0), Lit(0.0)), Lit(0.0))),
        _sampled(_half(DiffBlock((Lit(0.0), Lit(0.0), Var(0, "x")), Lit(0.0)),
                       Assign(_X, _call("neg", _X)))),
    ]
    for program in programs:
        for method in (None, RungeKutta4(0.25)):
            ensemble_grid = TimeGrid.regular(0.0, 3.0, 0.25)
            _assert_recorder_matches_eval_big(monkeypatch, program, _TABLE, zero, ensemble_grid,
                                              10 ** 6, method)


def test_recorder_matches_eval_big_on_durations_stops_and_erring_flows(monkeypatch):
    grid = TimeGrid.regular(0.0, 2.0, 0.125)
    move = (Lit(1.0), Lit(0.0), Lit(0.0))
    seen = set()
    programs = [
        # a negative duration on about half the runs, a zero one (no segment)
        (_sampled(DiffBlock(move, _call("-", _U, 0.5))), None),
        (_sampled(DiffBlock(move, Lit(0.0)), DiffBlock(move, _call("*", _U, 0.0))), None),
        # runs stop in time inside the block while the others go on
        (_sampled(DiffBlock(move, _call("*", _U, 4.0)), Assign(_Y, Lit(7.0))), None),
        # x' = x * x blows up inside the segment on some runs, before it on none
        (_sampled(Assign(_X, _call("+", _U, 0.5)),
                  DiffBlock((_call("*", _X, _X), Lit(0.0), Lit(0.0)), _call("*", _U, 1.5))),
         RungeKutta4(0.01)),
        # a nilpotent flow turns non-finite inside the segment on some runs
        (_sampled(Assign(_Y, _call("*", _U, 1e308)),
                  DiffBlock((Var(1, "u"), Var(2, "y"), Lit(0.0)), Lit(1.5))), None),
    ]
    for program, method in programs:
        for fuel in (2, 4, 6, 10 ** 6):
            seen |= _assert_recorder_matches_eval_big(monkeypatch, program, _TABLE, (0.0,) * 3,
                                                      grid, fuel, method)
    assert seen == {frontier.NORMAL, frontier.OPEN, frontier.ERR, frontier.CUT}


def _assert_recorders_match_canonical(monkeypatch, text, grid, method=None):
    """The frontier's and eval_big's recordings of `text` agree, and the
    ensemble read off them equals `_canonical_point` at every point; returns
    the ensemble and the frontier's recording."""
    program, table = parse_program(text)
    store = make_store(table)
    _assert_recorder_matches_eval_big(monkeypatch, program, table, store, grid, DEFAULT_FUEL,
                                      method)
    ens = run_ensemble(program, table, store, grid, 24, 5, flow_method=method)  # the frontier
    for traj in ens.trajectories:
        for g, pt in zip(grid.times, traj.points):
            assert pt == _canonical_point(program, store, g, traj.seed, DEFAULT_FUEL, method)
    seeds = [split_seed(5, i) for i in range(24)]
    return ens, frontier.record(program, store, grid.times[-1], seeds, DEFAULT_FUEL, method)


def test_a_time_stop_whose_stop_flow_is_undefined_errs_at_the_canonical_time(monkeypatch):
    # x = 1e308 + 1e308 * tau overflows from tau = 0.8 on: the stop at the
    # horizon, tau = 2 - u, is undefined
    text = "u := unif(0, 1) ; wait u ; x := 1e308 ; y := 1e308 ; x' = y, y' = 0 for 10"
    ens, rec = _assert_recorders_match_canonical(monkeypatch, text, TimeGrid.regular(0, 2, 0.25))
    assert (rec.outcomes == frontier.OPEN).all()
    assert (ens.kinds[:, -1] == montecarlo.ERROR).all()
    assert (ens.kinds == VALUE).any()
    # the rerun errs inside the block it entered after waiting u
    assert (rec.counts == 2).all()
    assert np.array_equal(ens.event_times[:, -1], 2.0 - (2.0 - rec.durations[::2]))


def test_a_time_stop_at_a_segments_exact_end_is_no_open_run(monkeypatch):
    # the second block lasts 2 - u, the time left after the first: it ends
    # exactly at the horizon, so the run finishes it and terminates
    text = "u := unif(0, 1) ; wait u ; x' = 1 for 2 - u ; y := 1"
    ens, rec = _assert_recorders_match_canonical(monkeypatch, text, TimeGrid.regular(0, 2, 0.25))
    assert (rec.outcomes == frontier.NORMAL).all()
    assert (ens.kinds[:, -1] == montecarlo.TERMINATED).all()


def test_a_zero_duration_flow_that_errs_records_no_segment(monkeypatch):
    # 10 * 1e308 overflows in the flow's coefficient, and inf * 0 is NaN
    text = ("u := unif(0, 1) ; wait u ; y := 1e308 ; "
            "if u <= 0.5 then x' = 10 * y for 0 else x := 1 ; wait 1")
    ens, rec = _assert_recorders_match_canonical(monkeypatch, text, TimeGrid.regular(0, 3, 0.25))
    erred = rec.outcomes == frontier.ERR
    assert set(rec.outcomes.tolist()) == {frontier.ERR, frontier.NORMAL}
    assert (rec.counts[erred] == 1).all() and (rec.counts[~erred] == 2).all()
    assert (ens.kinds[erred, -1] == montecarlo.ERROR).all()


def test_an_open_run_with_a_single_segment(monkeypatch):
    text = "u := unif(0, 1) ; if u <= 0.5 then x' = 1 for 5 else { wait u ; x' = 2 for 5 }"
    ens, rec = _assert_recorders_match_canonical(monkeypatch, text, TimeGrid.regular(0, 2, 0.25))
    assert (rec.outcomes == frontier.OPEN).all()
    assert set(rec.counts.tolist()) == {1, 2}
    assert (ens.kinds == VALUE).all()


def test_a_chunk_with_open_runs_in_both_blocks(monkeypatch):
    # cruise_uniform stopped half-way through a round: every run is OPEN in
    # the accelerating block or in the braking one
    text = (PROGRAMS / "cruise_uniform.swl").read_text()
    ens, rec = _assert_recorders_match_canonical(monkeypatch, text,
                                                 TimeGrid.regular(0, 10.5, 0.25))
    assert (rec.outcomes == frontier.OPEN).all()
    last = np.cumsum(rec.counts) - 1
    assert len(rec.blocks) == 2 and set(rec.segment_blocks[last].tolist()) == {0, 1}
    assert (ens.kinds == VALUE).all()


def test_recorder_cuts_fuel_on_the_step_where_a_run_would_end(monkeypatch):
    # x := 0 ; n := 6u ; while x <= n { x := x + 1 }: each run ends after its
    # own number of steps, so some fuel equals it exactly for every run
    program = Seq(Sample(_U), Seq(Assign(_Y, _call("*", _U, 6.0)),
                                  While(Leq(_X, _Y), Assign(_X, _call("+", _X, 1.0)))))
    grid = TimeGrid.from_times((0.0, 1.0))
    ends = set()
    for fuel in range(1, 20):
        for i in range(24):
            segments = []
            result = eval_big(Config(program, (0.0,) * 3, 1.0, from_seed(split_seed(5, i))),
                              fuel, None, segments)
            if type(result) is Normal and segments[-1][3] == fuel:  # the last step recorded
                ends.add(fuel)
        _assert_recorder_matches_eval_big(monkeypatch, program, _TABLE, (0.0,) * 3, grid, fuel)
    assert len(ends) > 3  # fuels that some run used to its last step


def test_recorder_cuts_on_an_unmasked_node_after_masked_ones(monkeypatch):
    # u <= 1/2 takes three masked steps in the branch, the rest one; the
    # shares rejoin for x := x + 1 five times and wait 1, which every alive
    # run takes unmasked: 11 steps against 9, so from fuel 5 to 10 every cut
    # lands on an unmasked node, at a step count its masked steps decide
    y = [Assign(_Y, Lit(float(v))) for v in range(4)]
    x = Assign(_X, _call("+", _X, 1.0))
    program = _sampled(_half(Seq(y[1], Seq(y[2], y[3])), y[0]), x, x, x, x)
    grid = TimeGrid.regular(0.0, 3.0, 0.5)
    seen = []
    for fuel in range(1, 12):
        seen.append(_assert_recorder_matches_eval_big(monkeypatch, program, _TABLE, (0.0,) * 3,
                                                      grid, fuel))
    cut, normal = {frontier.CUT}, {frontier.NORMAL}
    assert seen == [cut] * 8 + [cut | normal] * 2 + [normal]


def test_recorder_matches_eval_big_on_every_bundled_program(monkeypatch):
    for path in program_files() + [PROGRAMS.parent / "bench" / "pendulum.swl"]:
        program, table = parse_file(path)
        method = RungeKutta4(0.05) if path.stem == "pendulum" else None
        for grid in (TimeGrid.regular(0.0, 6.0, 0.25), TimeGrid.from_times((0.0, 0.7, 3.3))):
            for fuel in (25, DEFAULT_FUEL):
                _assert_recorder_matches_eval_big(monkeypatch, program, table, make_store(table),
                                                  grid, fuel, method)


def test_recorder_matches_eval_big_under_fuel_fuzz(monkeypatch):
    rng = random.Random(2718)
    grid = TimeGrid.regular(0.0, 3.0, 0.5)
    seen = set()
    for _ in range(200):
        table = gen_table(rng)
        program = gen_program(rng, table, depth=4, allow_exp=True)
        if rng.random() < 0.5:
            program = Seq(program, _counting_loop(rng, table))
        store = gen_store(rng, table)
        method = rng.choice((None, EXACT, RungeKutta4(0.1)))
        runs = rng.choice((1, 2, 7, 20))
        seeds = [rng.randrange(2 ** 64) for _ in range(runs)]
        # a run that loops in zero time takes every unit of a large fuel;
        # fuel 10^6 is checked on programs whose runs end within 2000 steps
        bounded = _eval_big_recording(program, store, 3.0, seeds, 2000, method)
        fuels = (1, 2, 3, 7, 40) + ((10 ** 6,) if frontier.CUT not in bounded.outcomes else ())
        for fuel in fuels:
            seen |= _assert_recorder_matches_eval_big(monkeypatch, program, table, store, grid,
                                                      fuel, method, runs)
    assert seen == {frontier.NORMAL, frontier.OPEN, frontier.ERR, frontier.CUT}


def test_vectorised_draws_equal_value_at_bit_for_bit():
    seeds = [0, 1, 2 ** 63, 2 ** 64 - 1]
    counters = [0, 1, 2, 3, 1000, 2 ** 32 - 1, 2 ** 32, 2 ** 40 - 1, 2 ** 40]
    grid = [(s, c) for s in seeds for c in counters]
    got = frontier.draws(np.array([s for s, _ in grid], dtype=np.uint64),
                         np.array([c for _, c in grid], dtype=np.uint64))
    assert [v.hex() for v in got.tolist()] == [_value_at(s, c).hex() for s, c in grid]


def test_recorder_needs_no_recursion(monkeypatch):
    # a 5000-statement Seq, left- and right-nested, and a loop of 10^5 rounds
    x = Var(0, "x")
    step = Assign(x, Call("+", (x, Lit(1.0))))
    right = step
    left = step
    for _ in range(4999):
        right = Seq(step, right)
        left = Seq(left, step)
    loop = Seq(Assign(x, Lit(0.0)), While(Leq(x, Lit(99999.0)), step))
    seeds = [split_seed(1, i) for i in range(20)]
    for program, steps in ((right, 5000), (left, 5000), (loop, 200002)):
        recording = frontier.record(program, (0.0,), 1.0, seeds, DEFAULT_FUEL)
        assert (recording.outcomes == frontier.NORMAL).all()
        # every run takes exactly `steps` steps: that fuel ends it, one less cuts it
        assert (frontier.record(program, (0.0,), 1.0, seeds, steps).outcomes
                == frontier.NORMAL).all()
        assert (frontier.record(program, (0.0,), 1.0, seeds, steps - 1).outcomes
                == frontier.CUT).all()
    assert recording.finals[0, 0] == 100000.0
