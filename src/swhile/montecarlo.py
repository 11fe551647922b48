"""Ensemble simulation and trajectory statistics.

A trajectory reports, per grid time, either the store at that instant, an
early normal termination (the final store is then held constant), the
time of the first evaluation error, or fuel exhaustion.  Two evaluation
modes produce it:

* canonical -- rerun the small-step closure once per grid time with the
  same seed-initialized entropy source;
* fast (default) -- one big-step run (`bigstep.eval_big`) to the last
  grid time records every positive-duration flow segment with the
  small-step count at its entry; the time-stop store is the last point and
  every earlier point is read off the segments.

Fast mode replays exactly the canonical arithmetic: reading a grid time g
walks the recorded segments subtracting durations from g in run order (the
same float operations the per-g rerun performs) and evolves the entry
store of the segment the remainder lands in, so the two modes agree
bit-for-bit on affine flows.  Both modes spend `fuel` on small-step
transitions, and an outcome reached after more than `fuel` steps is
Diverged in either mode, so fuel cut-offs agree too.

Error and fuel-exhausted runs are excluded from value statistics but
always reported as counts next to them.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import ode
from .bigstep import eval_big
from .entropy import from_seed, split_seed
from .smallstep import Config, DEFAULT_FUEL, Err, Normal, TimeStop, _close
from .store import Store, Undefined, eval_bool
from .store import eval_expr  # noqa: F401 -- unused here; tracers patch it by name
from .syntax import Program, VarTable


# The most times a regular grid may hold: every grid time costs a point in
# each trajectory, so a longer grid would exhaust memory before it ran.
MAX_GRID_POINTS = 10 ** 6


@dataclass(frozen=True, slots=True)
class TimeGrid:
    start: float
    end: float
    times: tuple

    def __post_init__(self):
        if self.start < 0:
            raise ValueError("grid start must be nonnegative")
        if not self.end > self.start:
            raise ValueError("grid end must exceed its start")
        if not self.times:
            raise ValueError("grid must contain at least one time")
        prev = None
        for t in self.times:
            if not self.start <= t <= self.end:
                raise ValueError("grid times must lie within [start, end]")
            if prev is not None and t <= prev:
                raise ValueError("grid times must be strictly increasing")
            prev = t

    @classmethod
    def from_times(cls, times) -> "TimeGrid":
        times = tuple(float(t) for t in times)
        if len(times) < 2:
            raise ValueError("an explicit grid needs at least two times")
        return cls(times[0], times[-1], times)

    @classmethod
    def regular(cls, start: float, end: float, step: float) -> "TimeGrid":
        if not all(math.isfinite(v) for v in (start, end, step)):
            raise ValueError("grid start, end and step must be finite")
        if step <= 0:
            raise ValueError("step must be positive")
        # the loop yields floor((end - start) / step) + 1 times (up to the
        # rounding of its tolerance); count them first, not by running it
        if (end - start) / step >= MAX_GRID_POINTS:
            raise ValueError(f"grid would hold more than {MAX_GRID_POINTS} times")
        times = []
        i = 0
        while True:
            t = start + i * step
            if t > end + 1e-12:
                break
            times.append(min(t, end))
            i += 1
        return cls(start, end, tuple(times))


# --- per-grid-time outcomes --------------------------------------------------

@dataclass(frozen=True, slots=True)
class Value:
    store: Store


@dataclass(frozen=True, slots=True)
class TerminatedEarly:
    store: Store
    time: float


@dataclass(frozen=True, slots=True)
class ErrorAt:
    time: float


@dataclass(frozen=True, slots=True)
class Diverged:
    budget: int


@dataclass(frozen=True, slots=True)
class Trajectory:
    seed: int
    points: tuple


@dataclass(frozen=True, slots=True)
class Ensemble:
    program: Program
    table: VarTable
    store0: Store
    grid: TimeGrid
    base_seed: int
    trajectories: tuple


# --- fast mode: one recorded big-step run, then segment reads ----------------

def _read_segments(flows, result, last_step, g, fuel, flow_method):
    """The canonical outcome at grid time g, read off a run to a time >= g.

    The rerun to g takes the same path up to the segment its remaining time
    lands in: g walks the segments subtracting durations in run order, as
    that rerun would, and a step past `fuel` is a fuel cut, as in `_close`.
    """
    failed = last_step if type(result) is Err else 0  # the step that erred; 0 matches no step
    remaining = g
    for block, entry, duration, step in flows:
        if duration > remaining or step == failed:
            if step > fuel:
                return Diverged(fuel)
            if duration <= remaining:  # g's run completes this flow, which errs
                return ErrorAt(g - remaining)
            try:
                return Value(ode.flow(block, entry, remaining, flow_method))
            except Undefined:
                return ErrorAt(g - remaining)
        remaining -= duration
    if last_step > fuel:
        return Diverged(fuel)
    if type(result) is Normal:
        return TerminatedEarly(result.store, g - remaining)
    return ErrorAt(g - remaining)


def _fast_points(program, store0, grid, seed, fuel, flow_method):
    *times, last = grid.times
    flows = []
    result = eval_big(Config(program, store0, last, from_seed(seed)), fuel, flow_method, flows)
    _, _, _, last_step = flows.pop()
    points = [_read_segments(flows, result, last_step, g, fuel, flow_method) for g in times]
    if type(result) is TimeStop and last_step <= fuel:
        points.append(Value(result.store))
    else:
        points.append(_read_segments(flows, result, last_step, last, fuel, flow_method))
    return tuple(points)


def _canonical_point(program, store0, g, seed, fuel, flow_method):
    result, _, _, last = _close(Config(program, store0, g, from_seed(seed)), fuel, flow_method)
    rt = type(result)
    if rt is TimeStop:
        return Value(result.store)
    if rt is Normal:
        return TerminatedEarly(result.store, g - result.t)
    if rt is Err:
        return ErrorAt(g - last.t)
    return Diverged(fuel)


def sample_trajectory(
    program: Program,
    store0: Store,
    grid: TimeGrid,
    seed: int,
    fuel: int = DEFAULT_FUEL,
    fast: bool = True,
    flow_method=None,
) -> Trajectory:
    """One run's store snapshots at every grid time.

    Both modes are pure functions of (program, store0, grid, seed); fast
    mode agrees with the per-time canonical rerun at every grid point.
    """
    if fast:
        points = _fast_points(program, store0, grid, seed, fuel, flow_method)
    else:
        points = tuple(
            _canonical_point(program, store0, g, seed, fuel, flow_method) for g in grid.times
        )
    return Trajectory(seed, points)


def _trajectory_task(args):
    program, store0, grid, seed, fuel, fast, flow_method = args
    return sample_trajectory(program, store0, grid, seed, fuel, fast, flow_method)


def run_ensemble(
    program: Program,
    table: VarTable,
    store0: Store,
    grid: TimeGrid,
    runs: int,
    base_seed: int,
    fuel: int = DEFAULT_FUEL,
    fast: bool = True,
    flow_method=None,
    workers: int | None = None,
) -> Ensemble:
    """Independent trajectories with per-run seeds split off `base_seed`.

    Results are aggregated by run index, so a parallel run (`workers` > 1)
    produces byte-identical output to a serial one.  A parallel run splits
    the runs into chunks of ceil(runs / min(workers, runs)) consecutive
    runs and starts one worker process per chunk.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    if workers is not None and workers < 1:
        raise ValueError("need at least one worker")
    seeds = [split_seed(base_seed, i) for i in range(runs)]
    tasks = [(program, store0, grid, s, fuel, fast, flow_method) for s in seeds]
    if workers is not None and workers > 1:
        chunk = -(-runs // min(workers, runs))
        with ProcessPoolExecutor(max_workers=-(-runs // chunk)) as pool:
            trajectories = tuple(pool.map(_trajectory_task, tasks, chunksize=chunk))
    else:
        trajectories = tuple(_trajectory_task(t) for t in tasks)
    return Ensemble(program, table, store0, grid, base_seed, trajectories)


# --- statistics ---------------------------------------------------------------

def _store_at(traj: Trajectory, index: int):
    pt = traj.points[index]
    t = type(pt)
    if t is Value:
        return pt.store
    if t is TerminatedEarly:
        return pt.store
    return None


@dataclass(frozen=True, slots=True)
class ProbabilitySeries:
    times: tuple
    fractions: tuple
    excluded: tuple  # error/diverged run count per grid time


def probability_over_time(ensemble: Ensemble, cond) -> ProbabilitySeries:
    """Fraction of runs satisfying `cond` at each grid time.

    Held final stores of early-terminated runs count with their value;
    error/diverged runs (and stores where the condition is undefined)
    count as not satisfying, with the error/diverged totals reported
    alongside.
    """
    n = len(ensemble.trajectories)
    fractions = []
    excluded = []
    for i in range(len(ensemble.grid.times)):
        hits = 0
        out = 0
        for traj in ensemble.trajectories:
            store = _store_at(traj, i)
            if store is None:
                out += 1
                continue
            try:
                if eval_bool(cond, store):
                    hits += 1
            except Undefined:
                pass
        fractions.append(hits / n)
        excluded.append(out)
    return ProbabilitySeries(ensemble.grid.times, tuple(fractions), tuple(excluded))


@dataclass(frozen=True, slots=True)
class IntervalProbability:
    fraction: float
    satisfying_runs: int
    runs: int
    excluded: int
    note: str


def interval_probability(ensemble: Ensemble, cond, t1: float, t2: float) -> IntervalProbability:
    """Fraction of runs where `cond` holds at >= 1 grid point in [t1, t2].

    Detection is limited to the grid: crossings between sample times are
    invisible, which the attached note spells out.
    """
    grid = ensemble.grid
    if not (grid.start <= t1 <= t2 <= grid.end):
        raise ValueError("interval must lie within the grid")
    indices = [i for i, t in enumerate(grid.times) if t1 <= t <= t2]
    hits = 0
    excluded = 0
    for traj in ensemble.trajectories:
        stores = [_store_at(traj, i) for i in indices]
        if all(s is None for s in stores):
            excluded += 1
        for store in stores:
            if store is None:
                continue
            try:
                ok = eval_bool(cond, store)
            except Undefined:
                ok = False
            if ok:
                hits += 1
                break
    n = len(ensemble.trajectories)
    note = (
        f"grid-resolution check: condition sampled at {len(indices)} grid "
        f"times in [{t1}, {t2}]; crossings between samples are not detected"
    )
    return IntervalProbability(hits / n, hits, n, excluded, note)


@dataclass(frozen=True, slots=True)
class HistogramResult:
    counts: tuple
    edges: tuple
    excluded: int


def _grid_index(grid: TimeGrid, t: float) -> int:
    """Index of grid time t, or of the nearest grid time within rounding.

    Regular grid times are start + i * step, so 0:1:0.1 holds
    0.30000000000000004, which a time typed as 0.3 must still find.
    """
    times = grid.times
    if t in times:
        return times.index(t)
    nearest = min(range(len(times)), key=lambda i: abs(times[i] - t))
    if math.isclose(times[nearest], t, rel_tol=1e-9, abs_tol=1e-12):
        return nearest
    raise ValueError(f"time {t!r} is not on the grid {times}")


def _var_index(table: VarTable, variable: str) -> int:
    if variable not in table:
        raise ValueError(f"unknown variable {variable!r}; have {list(table.names)}")
    return table.index(variable)


def histogram(ensemble: Ensemble, variable: str, t: float, bins: int) -> HistogramResult:
    """Equal-width histogram of a variable's values at a grid time."""
    if bins < 1:
        raise ValueError("need at least one bin")
    index = _grid_index(ensemble.grid, t)
    var_index = _var_index(ensemble.table, variable)
    values = []
    excluded = 0
    for traj in ensemble.trajectories:
        store = _store_at(traj, index)
        if store is None:
            excluded += 1
        else:
            values.append(store[var_index])
    if not values:
        return HistogramResult((), (), excluded)
    counts, edges = np.histogram(np.asarray(values), bins=bins)
    return HistogramResult(tuple(int(c) for c in counts), tuple(map(float, edges)), excluded)


@dataclass(frozen=True, slots=True)
class Moments:
    mean: float
    std: float
    count: int


def moments(ensemble: Ensemble, variable: str, t: float) -> Moments:
    """Sample mean and standard deviation at a grid time (errors excluded)."""
    index = _grid_index(ensemble.grid, t)
    var_index = _var_index(ensemble.table, variable)
    values = [
        store[var_index]
        for traj in ensemble.trajectories
        if (store := _store_at(traj, index)) is not None
    ]
    if not values:
        return Moments(float("nan"), float("nan"), 0)
    arr = np.asarray(values)
    std = float(np.std(arr, ddof=1)) if len(values) > 1 else 0.0
    return Moments(float(np.mean(arr)), std, len(values))


# --- export -------------------------------------------------------------------

_STATUS = {Value: "ok", TerminatedEarly: "terminated", ErrorAt: "error", Diverged: "diverged"}


def write_ensemble_csv(ensemble: Ensemble, fh) -> None:
    """Rows (run, t, one column per variable, status)."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["run", "t", *ensemble.table.names, "status"])
    for run, traj in enumerate(ensemble.trajectories):
        for i, t in enumerate(ensemble.grid.times):
            pt = traj.points[i]
            store = _store_at(traj, i)
            cells = [repr(v) for v in store] if store is not None else [""] * len(ensemble.table)
            writer.writerow([run, repr(t), *cells, _STATUS[type(pt)]])


def ensemble_json(ensemble: Ensemble) -> dict:
    runs = []
    for traj in ensemble.trajectories:
        points = []
        for pt in traj.points:
            entry = {"status": _STATUS[type(pt)]}
            t = type(pt)
            if t is Value:
                entry["store"] = list(pt.store)
            elif t is TerminatedEarly:
                entry["store"] = list(pt.store)
                entry["terminated_at"] = pt.time
            elif t is ErrorAt:
                entry["error_at"] = pt.time
            else:
                entry["budget"] = pt.budget
            points.append(entry)
        runs.append({"seed": traj.seed, "points": points})
    return {
        "variables": list(ensemble.table.names),
        "times": list(ensemble.grid.times),
        "base_seed": ensemble.base_seed,
        "runs": runs,
    }


def write_ensemble_json(ensemble: Ensemble, fh) -> None:
    json.dump(ensemble_json(ensemble), fh, sort_keys=True)
    fh.write("\n")


def write_series_csv(series: ProbabilitySeries, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["t", "fraction", "excluded"])
    for t, frac, out in zip(series.times, series.fractions, series.excluded):
        writer.writerow([repr(t), repr(frac), out])


def write_histogram_csv(hist: HistogramResult, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["bin_left", "bin_right", "count"])
    for i, count in enumerate(hist.counts):
        writer.writerow([repr(hist.edges[i]), repr(hist.edges[i + 1]), count])
    writer.writerow(["excluded", "", hist.excluded])
