"""Workload definitions: the seeded op lists the benchmark runs.

An op is one closed-loop request: a `swhile` CLI invocation (run
in-process through `swhile.cli.main`) or, where the CLI has no entry point,
one `swhile.bigstep.check_agreement` call.  The seed only chooses the
inputs (simulation seeds, grid times, thresholds, query times); the shape
of each op list is fixed per workload so that two seeds ask for about the
same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

BUNDLED = (
    "ball", "bernoulli_choice", "brownian", "cruise", "cruise_exponential",
    "cruise_uniform", "ctrw", "ctrw_counting", "positioning",
    "positioning_exact", "random_walk", "timestop",
)
PENDULUM = "bench/pendulum.swl"


def program_path(name: str) -> str:
    return PENDULUM if name == "pendulum" else f"programs/{name}.swl"


@dataclass(frozen=True)
class Simulate:
    """`swhile simulate`; `stat` is ("csv",), ("hist", var, t, bins),
    ("check", var, c) or ("interval", var, c, a, b)."""

    program: str
    grid: tuple  # (start, end, step) as CLI text
    runs: int
    seed: int
    stat: tuple
    flow: str | None = None
    parallel: int | None = None

    def argv(self) -> list:
        argv = ["simulate", program_path(self.program), "--grid", ":".join(self.grid),
                "--runs", str(self.runs), "--seed", str(self.seed)]
        if self.flow:
            argv += ["--flow", self.flow]
        kind = self.stat[0]
        if kind == "hist":
            _, var, t, bins = self.stat
            argv += ["--hist", f"{var}@{t!r}", "--bins", str(bins)]
        elif kind == "check":
            argv += ["--check", f"{self.stat[1]} <= {self.stat[2]}"]
        elif kind == "interval":
            _, var, c, a, b = self.stat
            argv += ["--check", f"{var} <= {c}", "--interval", repr(a), repr(b)]
        if self.parallel:
            argv += ["--parallel", str(self.parallel)]
        return argv

    def as_csv(self) -> "Simulate":
        """The same ensemble dumped as CSV, serially."""
        return replace(self, stat=("csv",), parallel=None)


@dataclass(frozen=True)
class Adequacy:
    program: str
    time: float

    def argv(self) -> list:
        return ["adequacy", program_path(self.program), "--rational", "--time", repr(self.time)]


@dataclass(frozen=True)
class Run:
    """`swhile run timestop.swl --time T`."""

    time: int
    seed: int
    program = "timestop"

    def argv(self) -> list:
        return ["run", program_path(self.program), "--time", str(self.time), "--seed", str(self.seed)]


@dataclass(frozen=True)
class Agree:
    """`check_agreement` on a bundled program from the all-zero store."""

    program: str
    time: float
    seed: int


def _grid_times(grid) -> tuple:
    from swhile.montecarlo import TimeGrid

    return TimeGrid.regular(*(float(x) for x in grid)).times


def _stat(rng, kind, var, lo, hi, times):
    if kind == "csv":
        return ("csv",)
    if kind == "hist":
        return ("hist", var, rng.choice(times[1:]), rng.choice((5, 10, 20)))
    c = f"{rng.uniform(lo, hi):.2f}"
    if kind == "check":
        return ("check", var, c)
    a, b = sorted(rng.sample(times, 2))
    return ("interval", var, c, a, b)


# (program, variable, threshold range) per simulated program
_HYBRID = (("ball", ("p", "v"), -15.0, 15.0),
           ("brownian", ("p", "v"), -3.0, 3.0),
           ("cruise_uniform", ("p", "v", "pl", "vl"), 0.0, 100.0))
_DISCRETE = (("random_walk", ("x",), -1.5, 1.5, ("0", "1", "1"), 20, None),
             ("ctrw_counting", ("x", "c"), -3.0, 10.0, ("0", "10", "1"), 20, None),
             ("pendulum", ("theta", "om"), -1.5, 1.5, ("0", "4", "1"), 3, "rk4:0.01"))


def hybrid_mc(rng) -> list:
    """120 fast-mode ensembles of 4 runs on a 201-point grid."""
    grid = ("0", "20", "0.1")
    times = _grid_times(grid)
    ops = []
    for i in range(120):
        name, variables, lo, hi = _HYBRID[i % 3]
        kind = ("hist", "check", "csv")[(i // 3) % 3]
        stat = _stat(rng, kind, rng.choice(variables), lo, hi, times)
        ops.append(Simulate(name, grid, 4, rng.getrandbits(64), stat))
    return ops


def discrete_mc(rng, parallel=None) -> list:
    """102 ensembles on coarse grids with little exact affine flow."""
    ops = []
    for i in range(102):
        name, variables, lo, hi, grid, runs, flow = _DISCRETE[i % 3]
        kind = ("check", "interval", "hist")[(i // 3) % 3]
        stat = _stat(rng, kind, rng.choice(variables), lo, hi, _grid_times(grid))
        ops.append(Simulate(name, grid, runs, rng.getrandbits(64), stat, flow, parallel))
    return ops


def pool_mc(rng) -> list:
    """Exactly discrete_mc's op list, fanned out over two worker processes."""
    return discrete_mc(rng, parallel=2)


def semantics_check(rng) -> list:
    """287 adequacy, three-way agreement and single-instant run ops: no Monte Carlo."""
    # Query times sit on fixed bases plus a small seeded offset: enumeration
    # cost jumps with the number of events before t, so wide offsets would
    # make one seed's op list much heavier than another's.
    adequacy = [Adequacy(name, base + rng.randrange(10) / 1000)
                for base in (0.5, 1.0, 1.5) for name in BUNDLED]
    # Many cheap agreement ops at spread-out times keep op latencies dense
    # around the median, and equal-length runs keep them dense around p90,
    # so a seed moves neither percentile much.
    agree = [Agree(name, base / 2 + rng.randrange(100) / 1000, rng.getrandbits(64))
             for base in range(1, 21) for name in BUNDLED]
    runs = [Run(2000 + rng.randrange(100), rng.getrandbits(64)) for _ in range(10)]
    # one long run whose kept trace sets the workload's peak memory
    runs.insert(5, Run(50000 + rng.randrange(1000), rng.getrandbits(64)))
    ops = []
    for i in range(max(len(adequacy), len(agree), len(runs))):
        for group in (adequacy, agree, runs):
            if i < len(group):
                ops.append(group[i])
    return ops


WORKLOADS = {
    "hybrid_mc": hybrid_mc,
    "discrete_mc": discrete_mc,
    "semantics_check": semantics_check,
    "pool_mc": pool_mc,
}


def make_ops(workload: str, seed: int) -> list:
    return WORKLOADS[workload](random.Random(seed))


def programs_of(ops) -> set:
    return {op.program for op in ops}
