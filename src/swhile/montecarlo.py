"""Ensemble simulation and trajectory statistics.

A trajectory reports, per grid time, either the store at that instant, an
early normal termination (the final store is then held constant), the
time of the first evaluation error, or fuel exhaustion.  An ensemble keeps
these outcomes as three arrays, one row per run and one column per grid
time:

* `kinds` -- the outcome code (VALUE, TERMINATED, ERROR, DIVERGED);
* `stores` -- float64 (runs, points, variables): the store of a VALUE
  point, or the held final store of a TERMINATED one; NaN elsewhere;
* `event_times` -- the termination time of a TERMINATED point, or the
  error time of an ERROR one; NaN elsewhere.

Every statistic and writer reads these arrays; `Ensemble.trajectories` and
`sample_trajectory` build `Trajectory` views of them on demand, with one
`Value`/`TerminatedEarly`/`ErrorAt`/`Diverged` object per point.  No
statistic or writer goes through the views, and only the JSON writer goes
through Python one point at a time:

* `probability_over_time` and `interval_probability` evaluate the
  condition once over the (runs x points, variables) store block with
  `frontier._truth`, the columnar form of `eval_bool` that the frontier
  recorder evaluates guards with; a point counts when it carries a store
  and its condition is defined and true;
* `histogram` and `moments` read one variable over the runs at one grid
  time;
* `write_ensemble_csv` formats a chunk of runs at a time, each distinct
  float of the chunk once, and writes each run's rows in one piece.  CSV
  floats are Python `repr`s, which read back to the same float.
* `write_ensemble_json` encodes and writes one run's JSON object at a
  time, so it holds one run's point objects, not the ensemble's.

Two evaluation modes fill the arrays:

* canonical -- rerun the small-step closure once per grid time with the
  same seed-initialized entropy source;
* fast (default) -- each run is recorded to the last grid time: the
  block, entry store and duration of every positive-duration flow
  segment, and how the run ended (a `frontier.Recording`: normally, with
  its final store; inside its last segment, OPEN, whether it stopped in
  time there or that segment's flow erred; with another error; or cut by
  fuel); then one array pass per chunk of consecutive runs reads their
  grid points off those segments (`_read_recorded`).  The first chunk
  holds min(_FRONTIER_FIRST, _CHUNK_CELLS // points) runs, sized before
  any segment is seen, and each next one twice as many, up to
  _CHUNK_CELLS // max(points, most segments of one run so far); a chunk
  that would leave fewer than FRONTIER_MIN_RUNS runs takes them too.
  While that size and the runs left are both at least FRONTIER_MIN_RUNS,
  a chunk is recorded by one frontier pass (`frontier.record`), bit for
  bit what `frontier.Recording.of_runs` makes of `eval_big`'s runs.  Once
  either falls below it (fewer than 16 runs left, a grid of more than
  4 096 points, a run of more than 4 096 segments seen), every remaining
  run is recorded with one `eval_big` call, read in chunks of runs x
  max(points, segments of one run) <= _CHUNK_CELLS.  A frontier pass
  costs a fixed number of numpy operations per program node, so on fewer
  runs the per-run interpreter is faster: FRONTIER_MIN_RUNS is where the
  two met on the bundled programs.  `eval_big` also stays the oracle the
  frontier is tested against.  No chunk's run count grows with the number
  of runs, so neither do the recordings held at once (the arrays do).

Fast mode replays exactly the canonical arithmetic: a grid time g walks
its run's segments subtracting durations from g in run order (the same
float operations the per-g rerun performs) and lands in the first segment
that outlasts the remainder; an OPEN run's last segment outlasts every
remainder.  The pass keeps those remainders as an
(runs, points) matrix and flows each landed point's entry store with
`ode.flow_rows`, whose arithmetic is one `ode.flow` call's, so the two
modes agree bit for bit on affine flows.  Both modes spend `fuel` on
small-step transitions, and an outcome reached after more than `fuel`
steps is Diverged in either mode, so fuel cut-offs agree too.

A parallel run splits the runs into one chunk of consecutive runs per
worker process, the chunks differing by at most one run, with at most one
worker per available CPU and one per _FRONTIER_FIRST runs, as a worker's
start-up outweighs recording fewer runs; an ensemble too small for two
workers runs serially, in process.  Each worker records its chunk by the
same rule, returns its chunk's arrays, and the parent concatenates them in
run order, so the output is byte-identical to a serial run.  The pool is
`concurrent.futures.ProcessPoolExecutor`, imported when the first pool
starts, so a serial run never loads it.  An ensemble holds at most
MAX_ENSEMBLE_POINTS points.

Error and fuel-exhausted runs are excluded from value statistics but
always reported as counts next to them.
"""

from __future__ import annotations

import bisect
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import frontier, ode
from .bigstep import eval_big
from .entropy import from_seed, split_seed
from .smallstep import Config, DEFAULT_FUEL, Err, Normal, TimeGrid, TimeStop, _close
from .store import Store
from .store import eval_bool, eval_expr  # noqa: F401 -- unused here; tracers patch them by name
from .syntax import Program, VarTable


# The most bins one histogram may hold: numpy allocates every bin's count
# and edge before it counts a value, so 10^12 bins would ask for terabytes.
MAX_HISTOGRAM_BINS = 10 ** 6

# The most points (runs x grid times) one ensemble may hold: each point holds
# a store of float64s plus an outcome code and an event time, so 10^8 points
# take at least 1.7 GB, and a larger ensemble would exhaust memory -- or
# first spend hours splitting its seeds -- before it ran.
MAX_ENSEMBLE_POINTS = 10 ** 8

# The most grid times an off-grid diagnostic lists; a longer grid is named
# by its extent, since a 10^5-time grid would print a megabyte of times.
_LISTED_GRID_TIMES = 20


# --- per-grid-time outcomes: the view classes and the array codes ------------

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


# outcome codes in an ensemble's `kinds`; the first two carry a store
VALUE, TERMINATED, ERROR, DIVERGED = range(4)
_STATUS = ("ok", "terminated", "error", "diverged")


def _trajectory(seed: int, kinds, stores, event_times, fuel: int) -> Trajectory:
    """The view of one run's rows, with Python floats."""
    points = []
    for kind, store, time in zip(kinds.tolist(), stores.tolist(), event_times.tolist()):
        if kind == VALUE:
            points.append(Value(tuple(store)))
        elif kind == TERMINATED:
            points.append(TerminatedEarly(tuple(store), time))
        elif kind == ERROR:
            points.append(ErrorAt(time))
        else:
            points.append(Diverged(fuel))
    return Trajectory(seed, tuple(points))


@dataclass(frozen=True, slots=True, eq=False)
class Ensemble:
    table: VarTable
    grid: TimeGrid
    base_seed: int
    fuel: int
    seeds: tuple
    kinds: np.ndarray  # int8 (runs, points)
    stores: np.ndarray  # float64 (runs, points, variables)
    event_times: np.ndarray  # float64 (runs, points)

    @property
    def trajectories(self) -> tuple:
        """One `Trajectory` view per run, built on each access."""
        return tuple(_trajectory(*row, self.fuel) for row in
                     zip(self.seeds, self.kinds, self.stores, self.event_times))


# --- reading runs into arrays -------------------------------------------------

# Fast mode sizes its chunks of consecutive runs by _CHUNK_CELLS over
# max(grid points, most segments of one run seen so far), as the module
# docstring says, and a chunk's remainder chains span at most _CHAIN_CELLS
# floats, so no temporary grows with the runs or with segments x points.
_CHUNK_CELLS = 2 ** 16
_CHAIN_CELLS = 2 ** 18

# The fewest runs that fast mode records in one frontier pass.  Recorder
# time alone, in process, frontier against one eval_big call per run,
# best of 40 with the two interleaved (2-core machine whose speed drifts):
# at 12 runs 0.9-1.15x on ball, brownian and cruise_uniform, 1.6-2.6x on
# random_walk and ctrw_counting; at 16 runs 1.3-1.5x on the first three,
# 2.1-3.4x on the other two, and 0.9-1.15x on the RK4 pendulum, whose
# flows still take one call per run.
FRONTIER_MIN_RUNS = 16
# The runs of the first frontier chunk; each next chunk doubles, up to the
# cells bound set by the most segments of one run seen so far.  It is also
# the fewest runs `run_ensemble` gives a worker process.  A 2-worker pool
# against serial, in process, best of 3 on a 2-core machine whose speed
# drifts: random_walk (grid 0:10:1) took 6.1x as long on 20 runs, 2.3x on
# 400 and 1.7x on 2 000; ball (0:20:0.1) 2.9x on 20 and 0.97x on 256; the
# RK4 pendulum 1.5x on 20 and 0.85x on 100.  A 2-worker pool that does
# nothing takes 9-14 ms to start, more than a serial 20-run ensemble, so
# the pool pays only on hundreds of runs per worker, and only on
# flow-heavy programs, whose 256-511-run ensembles give up its gain.
_FRONTIER_FIRST = 2 ** 8


def _read_runs(program, store0, grid, seeds, fuel, fast, flow_method):
    """(kinds, stores, event_times) of the runs with these seeds, in order."""
    shape = (len(seeds), len(grid.times))
    kinds = np.empty(shape, dtype=np.int8)
    stores = np.full((*shape, len(store0)), np.nan)
    event_times = np.full(shape, np.nan)
    read = _read_fast if fast else _read_canonical
    read(program, store0, grid, seeds, fuel, flow_method, kinds, stores, event_times)
    return kinds, stores, event_times


def _read_canonical(program, store0, grid, seeds, fuel, flow_method, kinds, stores, event_times):
    for r, seed in enumerate(seeds):
        for p, g in enumerate(grid.times):
            result, _, last = _close(Config(program, store0, g, from_seed(seed)), fuel, flow_method)
            rt = type(result)
            if rt is TimeStop:
                kinds[r, p] = VALUE
                stores[r, p] = result.store
            elif rt is Normal:
                kinds[r, p] = TERMINATED
                stores[r, p] = result.store
                event_times[r, p] = g - result.t
            elif rt is Err:
                kinds[r, p] = ERROR
                event_times[r, p] = g - last.t
            else:
                kinds[r, p] = DIVERGED


def _read_fast(program, store0, grid, seeds, fuel, flow_method, kinds, stores, event_times):
    """Record the runs and read their grid points, a chunk of runs at a
    time: frontier passes while a chunk of FRONTIER_MIN_RUNS fits, then one
    `eval_big` call per run (see the module docstring).  A per-run chunk is
    read once one more run would make its runs x max(grid points, most
    segments of one run) exceed _CHUNK_CELLS (a run that alone exceeds it
    is read alone)."""
    last, points, width = grid.times[-1], len(grid.times), len(store0)
    lo, size, widest = 0, _FRONTIER_FIRST, 0
    while True:
        size = min(size, _CHUNK_CELLS // max(points, widest))
        rest = len(seeds) - lo
        if min(size, rest) < FRONTIER_MIN_RUNS:
            break
        hi = lo + (rest if rest - size < FRONTIER_MIN_RUNS else size)
        recording = frontier.record(program, store0, last, seeds[lo:hi], fuel, flow_method)
        _read_recorded(recording, grid, flow_method, kinds[lo:hi], stores[lo:hi],
                       event_times[lo:hi])
        lo, size, widest = hi, 2 * size, max(widest, recording.widest)
    chunk, start, widest = [], lo, 0
    for r in range(lo, len(seeds)):
        segments = []
        config = Config(program, store0, last, from_seed(seeds[r]))
        result = eval_big(config, fuel, flow_method, segments)
        count = len(segments) - 1
        if chunk and (len(chunk) + 1) * max(points, widest, count) > _CHUNK_CELLS:
            _read_recorded(frontier.Recording.of_runs(chunk, width), grid, flow_method,
                           kinds[start:r], stores[start:r], event_times[start:r])
            chunk, start, widest = [], r, 0
        chunk.append((result, segments))
        widest = max(widest, count)
    if chunk:
        _read_recorded(frontier.Recording.of_runs(chunk, width), grid, flow_method,
                       kinds[start:], stores[start:], event_times[start:])


# A run's points past its last segment take its tail outcome, by
# frontier outcome code: NORMAL, OPEN (never read: every point that reaches
# an OPEN run's last segment lands there), ERR, CUT.
_TAILS = np.array([TERMINATED, ERROR, ERROR, DIVERGED], dtype=np.int8)


def _read_recorded(rec, grid, flow_method, kinds, stores, event_times):
    """Read every grid point of the recorded runs at once.

    A grid time g's remainder after k segments is g minus their durations,
    subtracted in run order as the rerun to g would; g lands in the first
    segment whose duration exceeds that remainder.  An OPEN run's last
    segment counts as never ending, so every grid time that reaches it
    lands there: the rerun stops in time inside it (or its flow errs), and
    where the remainder reaches the segment's true end the rerun flows all
    of it and errs.  Points that land nowhere take their run's tail
    outcome.  Recorded segments never lie past step `fuel` (see
    `eval_big`), so only points past a run's last segment can be fuel cuts.
    `rec` is a `frontier.Recording`.
    """
    outcomes, counts = rec.outcomes, rec.counts
    # every point starts as its run's tail outcome; landed points overwrite it
    grid_times = remaining = np.asarray(grid.times, dtype=float)
    kinds[:] = _TAILS[outcomes][:, None]
    if (outcomes == frontier.NORMAL).any():
        stores[:] = rec.finals[:, None, :]  # NaN on every run that is not NORMAL
    if len(rec.durations):
        starts = np.cumsum(counts) - counts  # each run's first segment
        table = np.zeros((len(counts), int(counts.max())))  # 0.0 past a run's end moves nothing
        table[np.arange(table.shape[1]) < counts[:, None]] = rec.durations
        opened = np.flatnonzero(outcomes == frontier.OPEN)
        table[opened, counts[opened] - 1] = np.inf
        r_idx, p_idx, k_idx, tau, remaining = _land(table, grid_times)
        landed = starts[r_idx] + k_idx  # index into the segments
        entry = rec.entries[landed]
        # at or past the end of an OPEN run's erring segment, the rerun errs
        past = rec.durations[landed] <= tau
        if len(rec.blocks) == 1 and not past.any():
            # every landed point flows along the one block: no index arrays
            # (about 5 % of a 4-run ball ensemble on 201 grid times)
            groups = [(rec.blocks[0], slice(None))]
        else:
            ids = rec.segment_blocks[landed]
            ids[past] = -1
            groups = [(block, np.flatnonzero(ids == b)) for b, block in enumerate(rec.blocks)]
        kind = np.full(len(tau), ERROR, dtype=np.int8)
        out = np.full((len(tau), stores.shape[2]), np.nan)
        for block, rows in groups:
            values, defined = ode.flow_rows(block, entry[rows], tau[rows], flow_method)
            kind[rows] = np.where(defined, VALUE, ERROR)
            out[rows] = np.where(defined[:, None], values, np.nan)
        kinds[r_idx, p_idx] = kind
        stores[r_idx, p_idx] = out
        remaining[r_idx, p_idx] = tau
    np.subtract(grid_times, remaining, out=event_times)
    event_times[(kinds == VALUE) | (kinds == DIVERGED)] = np.nan


def _land(table, grid_times):
    """Walk every grid time down its run's segments.

    `table` holds each run's segment durations.  Returns the points that
    land -- run and grid indices, landing segment and remainder there --
    and the remainder of every other point after its run's last segment.
    Segments are taken in blocks whose remainder chains -- one
    `np.subtract.accumulate`, the same subtractions in the same order as a
    walk one segment at a time -- hold at most _CHAIN_CELLS floats.
    """
    runs, width = table.shape
    remaining = np.empty((runs, len(grid_times)))
    remaining[:] = grid_times
    unlanded = np.ones(remaining.shape, dtype=bool)
    found = []
    step = max(1, _CHAIN_CELLS // remaining.size - 1)
    for k0 in range(0, width, step):
        durations = table[:, k0:k0 + step].T[:, :, None]  # (segments, runs, 1)
        chains = np.empty((len(durations) + 1, *remaining.shape))
        chains[0] = remaining
        chains[1:] = durations
        np.subtract.accumulate(chains, axis=0, out=chains)
        hit = durations > chains[:-1]
        lands = hit.any(axis=0)
        lands &= unlanded
        r_idx, p_idx = np.nonzero(lands)
        k_idx = hit.argmax(axis=0)[r_idx, p_idx]
        found.append((r_idx, p_idx, k_idx + k0, chains[k_idx, r_idx, p_idx]))
        unlanded &= ~lands
        remaining = chains[-1]  # meaningful where still unlanded
    return (*map(np.concatenate, zip(*found)), remaining)


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
    kinds, stores, event_times = _read_runs(program, store0, grid, (seed,), fuel, fast,
                                            flow_method)
    return _trajectory(seed, kinds[0], stores[0], event_times[0], fuel)


def _read_task(args):
    return _read_runs(*args)


def __getattr__(name: str):
    # concurrent.futures is imported when the first pool starts, or when the
    # class is read as `montecarlo.ProcessPoolExecutor`
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def check_ensemble(grid: TimeGrid, runs: int, workers: int | None) -> None:
    """Refuse what `run_ensemble` refuses: fewer than one run or worker, or
    more than MAX_ENSEMBLE_POINTS points."""
    if runs < 1:
        raise ValueError("need at least one run")
    if workers is not None and workers < 1:
        raise ValueError("need at least one worker")
    if runs * len(grid.times) > MAX_ENSEMBLE_POINTS:
        raise ValueError(f"{runs} runs x {len(grid.times)} grid times exceed the ensemble "
                         f"maximum of {MAX_ENSEMBLE_POINTS} points")


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
    produces byte-identical output to a serial one.  A parallel run starts
    P = min(workers, runs // _FRONTIER_FIRST, available CPUs) worker
    processes, worker i reading runs [runs * i // P, runs * (i + 1) // P),
    so the chunks differ by at most one run and no worker holds fewer than
    runs // P >= _FRONTIER_FIRST (256) runs; with P <= 1 it runs serially,
    in process.
    An ensemble of more than MAX_ENSEMBLE_POINTS points (runs x grid times)
    is refused before any seed is split.
    """
    check_ensemble(grid, runs, workers)
    seeds = tuple(split_seed(base_seed, i) for i in range(runs))
    workers = min(workers or 1, runs // _FRONTIER_FIRST, _available_cpus())
    if workers > 1:
        bounds = [runs * i // workers for i in range(workers + 1)]
        tasks = [(program, store0, grid, seeds[lo:hi], fuel, fast, flow_method)
                 for lo, hi in zip(bounds, bounds[1:])]
        # through the module attribute, which a tracer may replace; the
        # first pool imports it (`__getattr__`)
        pool_class = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
        with pool_class(max_workers=len(tasks)) as pool:
            parts = list(pool.map(_read_task, tasks))
        arrays = [np.concatenate(part) for part in zip(*parts)]
    else:
        arrays = _read_runs(program, store0, grid, seeds, fuel, fast, flow_method)
    return Ensemble(table, grid, base_seed, fuel, seeds, *arrays)


# --- statistics ---------------------------------------------------------------

def _with_store(ensemble: Ensemble):
    """(runs, points) mask of the points that carry a store."""
    return ensemble.kinds <= TERMINATED


def _chunk_runs(array) -> int:
    """Runs (rows of `array`) that hold at most _CHUNK_CELLS items, at least one."""
    return max(1, _CHUNK_CELLS // max(1, array[0].size)) if len(array) else 1


def _lists(array):
    """The rows of `array` as nested lists of Python numbers, converted at
    most _CHUNK_CELLS items at a time."""
    step = _chunk_runs(array)
    for lo in range(0, len(array), step):
        yield from array[lo:lo + step].tolist()


def _holds(ensemble: Ensemble, cond, points=slice(None)):
    """(runs, points) masks of the points where `cond` holds and of those
    that carry a store, over the grid times `points`.

    The condition is evaluated once over the whole store block, one column
    per variable, by `frontier._truth`, which computes what `eval_bool`
    computes at each store; a point holds when it carries a store and its
    condition is defined and true.
    """
    has = _with_store(ensemble)[:, points]
    stores = ensemble.stores[:, points]
    live = has.ravel()
    with np.errstate(all="ignore"):  # NaN and inf are read off `good`, not warned about
        truth, good = frontier._truth(cond, stores.reshape(-1, stores.shape[2]).T, live)
    hit = live & truth
    if good is not None:
        hit &= good
    return hit.reshape(has.shape), has


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
    n = len(ensemble.seeds)
    hit, has = _holds(ensemble, cond)
    # integer counts over an integer: one correctly rounded division each
    fractions = (hit.sum(axis=0) / n).tolist()
    excluded = (n - has.sum(axis=0)).tolist()
    return ProbabilitySeries(ensemble.grid.times, tuple(fractions), tuple(excluded))


def _grid_match(times, t: float):
    """The index of the grid time nearest t, the earlier of two as near,
    and whether that time matches t: equals it, or lies within rounding.

    Regular grid times are start + i * step, so 0:1:0.1 holds
    0.30000000000000004, which a time typed as 0.3 must still find.
    """
    i = bisect.bisect_left(times, t)  # the times strictly increase
    if i < len(times) and times[i] == t:
        return i, True
    nearest = min((j for j in (i - 1, i) if 0 <= j < len(times)),
                  key=lambda j: abs(times[j] - t))
    return nearest, math.isclose(times[nearest], t, rel_tol=1e-9, abs_tol=1e-12)


def interval_indices(grid: TimeGrid, t1: float, t2: float) -> range:
    """The indices of the grid times in [t1, t2], where an endpoint that
    names a grid time, as `histogram` finds one, stands for that time; an
    interval that is reversed, outside the grid, or holding no grid time is
    refused."""
    if t1 > t2:
        raise ValueError(f"interval [{t1}, {t2}] is reversed: its start exceeds its end")
    if not (grid.start <= t1 <= t2 <= grid.end):
        raise ValueError("interval must lie within the grid")
    times = grid.times
    (lo, lo_named), (hi, hi_named) = _grid_match(times, t1), _grid_match(times, t2)
    lo = lo if lo_named else bisect.bisect_left(times, t1)
    hi = hi if hi_named else bisect.bisect_right(times, t2) - 1
    if lo > hi:
        raise ValueError(f"interval [{t1}, {t2}] holds no grid time")
    return range(lo, hi + 1)


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
    invisible, which the attached note spells out.  An interval that holds
    no grid time is refused, as one outside the grid is.
    """
    indices = interval_indices(ensemble.grid, t1, t2)
    hit, has = _holds(ensemble, cond, slice(indices[0], indices[-1] + 1))
    hits = int(np.count_nonzero(hit.any(axis=1)))
    n = len(ensemble.seeds)
    excluded = int(np.count_nonzero(~has.any(axis=1)))
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
    """Index of grid time t as `_grid_match` finds it.

    An off-grid time is refused naming the grid: its times, when it holds
    at most _LISTED_GRID_TIMES of them, or else its extent and the nearest.
    """
    times = grid.times
    index, matched = _grid_match(times, t)
    if matched:
        return index
    if len(times) <= _LISTED_GRID_TIMES:
        raise ValueError(f"time {t!r} is not on the grid {times}")
    raise ValueError(f"time {t!r} is not on the grid of {len(times)} times from "
                     f"{grid.start!r} to {grid.end!r}; the nearest is {times[index]!r}")


def _var_index(table: VarTable, variable: str) -> int:
    if variable not in table:
        raise ValueError(f"unknown variable {variable!r}; have {list(table.names)}")
    return table.index(variable)


def _column(ensemble: Ensemble, variable: str, t: float):
    """The variable's values at grid time t over the runs with a store, in
    run order, and the count of runs without one."""
    index = _grid_index(ensemble.grid, t)
    var_index = _var_index(ensemble.table, variable)
    has = _with_store(ensemble)[:, index]
    values = ensemble.stores[has, index, var_index]
    return values, len(has) - len(values)


def check_histogram(table: VarTable, grid: TimeGrid, variable: str, t: float, bins: int) -> None:
    """Refuse what `histogram` refuses: a bin count out of range, a time
    not on the grid, or an unknown variable."""
    if bins < 1:
        raise ValueError("need at least one bin")
    if bins > MAX_HISTOGRAM_BINS:
        raise ValueError(f"a histogram may hold at most {MAX_HISTOGRAM_BINS} bins")
    _grid_index(grid, t)
    _var_index(table, variable)


def histogram(ensemble: Ensemble, variable: str, t: float, bins: int) -> HistogramResult:
    """Equal-width histogram of a variable's values at a grid time.

    Where max - min overflows, the edges are 2 * linspace(min/2, max/2),
    which runs from min to max without forming that difference."""
    check_histogram(ensemble.table, ensemble.grid, variable, t, bins)
    values, excluded = _column(ensemble, variable, t)
    if not len(values):
        return HistogramResult((), (), excluded)
    lo, hi = float(values.min()), float(values.max())
    if math.isinf(hi - lo):
        edges = 2 * np.linspace(lo / 2, hi / 2, bins + 1)
        with np.errstate(all="ignore"):
            counts, _ = np.histogram(values, bins=edges)
    else:
        counts, edges = np.histogram(values, bins=bins)
    return HistogramResult(tuple(counts.tolist()), tuple(edges.tolist()), excluded)


@dataclass(frozen=True, slots=True)
class Moments:
    mean: float
    std: float
    count: int


def moments(ensemble: Ensemble, variable: str, t: float) -> Moments:
    """Sample mean and standard deviation at a grid time (errors excluded).

    Store values are finite, but their sum or the squares of their
    deviations can overflow.  Where the plain result is not finite it is
    computed again from the values divided by max |v|, which lie in
    [-1, 1], and multiplied back; a std beyond the largest float is then
    inf.  Every finite plain result is kept as it is.
    """
    values, _ = _column(ensemble, variable, t)
    if not len(values):
        return Moments(float("nan"), float("nan"), 0)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(values))
        std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(std)):
        top = float(np.max(np.abs(values)))
        scaled = values / top
        if not math.isfinite(mean):
            mean = float(np.mean(scaled)) * top
        if not math.isfinite(std):
            std = float(np.std(scaled, ddof=1)) * top
    return Moments(mean, std, len(values))


# --- export -------------------------------------------------------------------

def write_ensemble_csv(ensemble: Ensemble, fh) -> None:
    """Rows (run, t, one column per variable, status), each float as its repr.

    A chunk of runs at a time: each distinct float of the chunk's stores
    (by bit pattern, so -0.0 keeps its sign) is formatted once, and each
    run's rows go out in one write.
    """
    names = ensemble.table.names
    width = len(names)
    fh.write(",".join(["run", "t", *names, "status"]) + "\n")
    times = [f",{t!r}" for t in ensemble.grid.times]
    points = len(times)
    blank = "," * width
    ends = [f",{status}\n" for status in _STATUS]
    step = _chunk_runs(ensemble.stores)
    for lo in range(0, len(ensemble.stores), step):
        bits, which = np.unique(ensemble.stores[lo:lo + step].view(np.uint64).ravel(),
                                return_inverse=True)
        text = [f",{v!r}" for v in bits.view(np.float64).tolist()]
        cells = list(map(text.__getitem__, which.tolist()))
        # each point's variable columns, one string a point
        stores = list(map("".join, zip(*(cells[v::width] for v in range(width)))))
        kinds = ensemble.kinds[lo:lo + step]
        for i in np.flatnonzero(kinds.ravel() > TERMINATED).tolist():
            stores[i] = blank
        for r, run_kinds in enumerate(kinds.tolist()):
            run, base = str(lo + r), r * points
            fh.write("".join([run + t + store + ends[kind] for t, store, kind in
                              zip(times, stores[base:base + points], run_kinds)]))


def _runs_json(ensemble: Ensemble):
    """Each run's JSON object, in run order: its seed and one object per
    grid point."""
    for seed, kinds, stores, event_times in zip(ensemble.seeds, _lists(ensemble.kinds),
                                                _lists(ensemble.stores),
                                                _lists(ensemble.event_times)):
        points = []
        for kind, store, time in zip(kinds, stores, event_times):
            entry = {"status": _STATUS[kind]}
            if kind == VALUE:
                entry["store"] = store
            elif kind == TERMINATED:
                entry["store"] = store
                entry["terminated_at"] = time
            elif kind == ERROR:
                entry["error_at"] = time
            else:
                entry["budget"] = ensemble.fuel
            points.append(entry)
        yield {"seed": seed, "points": points}


def ensemble_json(ensemble: Ensemble) -> dict:
    return {
        "variables": list(ensemble.table.names),
        "times": list(ensemble.grid.times),
        "base_seed": ensemble.base_seed,
        "runs": list(_runs_json(ensemble)),
    }


_ENCODE = json.JSONEncoder(sort_keys=True).encode  # json.dumps(..., sort_keys=True)


def write_ensemble_json(ensemble: Ensemble, fh) -> None:
    """The text of `json.dumps(ensemble_json(ensemble), sort_keys=True)`
    and a newline, written one run at a time, so that only one run's
    point objects are held at once.

    The keys sort as base_seed, runs, times, variables: the runs go
    between the first key and the last two.
    """
    tail = _ENCODE({"times": list(ensemble.grid.times), "variables": list(ensemble.table.names)})
    fh.write(f'{{"base_seed": {_ENCODE(ensemble.base_seed)}, "runs": [')
    sep = ""
    for run in _runs_json(ensemble):
        fh.write(sep + _ENCODE(run))
        sep = ", "
    fh.write(f"], {tail[1:]}\n")


def write_series_csv(series: ProbabilitySeries, fh) -> None:
    fh.write("t,fraction,excluded\n")
    fh.write("".join(f"{t!r},{f!r},{n}\n"
                     for t, f, n in zip(series.times, series.fractions, series.excluded)))


def write_histogram_csv(hist: HistogramResult, fh) -> None:
    fh.write("bin_left,bin_right,count\n")
    fh.write("".join(f"{a!r},{b!r},{n}\n"
                     for a, b, n in zip(hist.edges, hist.edges[1:], hist.counts)))
    fh.write(f"excluded,,{hist.excluded}\n")
