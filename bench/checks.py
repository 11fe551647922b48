"""Per-op correctness checks, run after the timed phase.

Each check compares an op's output against a reference that does not go
through the code path being timed:

* simulate statistics (--hist, --check, --check --interval) are recomputed
  with numpy from the same ensemble's exported CSV values;
* for a seeded subset of simulate ops, one run's exported values are
  compared with a canonical small-step rerun (`sample_trajectory` with
  fast=False): bit-exact for exact flows, within 1e-9 for RK4;
* `--parallel` ops must print byte-identical output to the serial op;
* adequacy must pass with tv exactly 0 (rational mode);
* `run timestop.swl --time T` at integer T must print `time-stop: x = T+1`;
* every check_agreement report must be ok.

`check_op` returns None for a correct op, else a one-line reason.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import replace

import numpy as np

from swhile import montecarlo, ode
from swhile.entropy import split_seed
from swhile.store import make_store
from workloads import Adequacy, Agree, Run, Simulate

RK4_TOLERANCE = 1e-9
_STATUS = {montecarlo.Value: "ok", montecarlo.TerminatedEarly: "terminated",
           montecarlo.ErrorAt: "error", montecarlo.Diverged: "diverged"}
_HAS_STORE = ("ok", "terminated")


class Checker:
    """Checks ops of one workload; `rerun(op)` executes an op untimed and
    `rng` picks the run a canonical comparison checks."""

    def __init__(self, programs, rerun, rng):
        self.programs = programs
        self.rerun = rerun
        self.rng = rng

    def check_op(self, op, rc, text, canonical=False):
        """`canonical` also compares one seeded run with a small-step rerun."""
        if rc != 0:
            return f"exit code {rc}"
        if isinstance(op, Simulate):
            return self._simulate(op, text, canonical)
        if isinstance(op, Adequacy):
            report = json.loads(text)
            bad = [c for c in report["checks"] if not c["pass"] or c["tv"] != 0.0
                   or c["operational_support"] != c["denotational_support"]]
            return None if report["pass"] and not bad else f"adequacy failed: {bad}"
        if isinstance(op, Run):
            want = f"time-stop: x = {float(op.time + 1)!r}"
            got = text.splitlines()[0] if text else ""
            return None if got == want else f"expected {want!r}, got {got!r}"
        if isinstance(op, Agree):
            report = json.loads(text)
            return None if report["ok"] else f"agreement violated: {report['violations']}"
        raise TypeError(op)

    def _simulate(self, op, text, canonical):
        if op.parallel:
            serial = replace(op, parallel=None)
            rc, reference = self.rerun(serial)
            if rc != 0 or reference != text:
                return "parallel output differs from the serial op"
        if op.stat[0] == "csv":
            table = text
        else:
            rc, table = self.rerun(op.as_csv())
            if rc != 0:
                return f"csv rerun exit code {rc}"
        ens = _parse_ensemble(table)
        if op.stat[0] != "csv":
            reason = _check_stat(op.stat, ens, text)
            if reason:
                return reason
        if canonical:
            return self._canonical(op, ens, self.rng.randrange(op.runs))
        return None

    def _canonical(self, op, ens, run):
        program, table = self.programs[op.program]
        grid = montecarlo.TimeGrid.regular(*(float(x) for x in op.grid))
        method = None
        if op.flow:
            method = ode.RungeKutta4(float(op.flow.split(":", 1)[1]))
        traj = montecarlo.sample_trajectory(program, make_store(table), grid,
                                            split_seed(op.seed, run), fast=False,
                                            flow_method=method)
        tol = RK4_TOLERANCE if method else 0.0
        for i, pt in enumerate(traj.points):
            status = _STATUS[type(pt)]
            if ens.status[run][i] != status:
                return f"run {run} point {i}: canonical {status}, fast {ens.status[run][i]}"
            if status in _HAS_STORE:
                got = ens.values[run, i]
                if not np.all(np.abs(got - np.asarray(pt.store)) <= tol):
                    return f"run {run} point {i}: canonical {pt.store}, fast {tuple(got)}"
        return None


class _Ensemble:
    def __init__(self, names, times, values, status):
        self.names = names
        self.times = times
        self.values = values  # runs x times x variables, NaN where no store
        self.status = status  # runs x times status strings

    def var(self, name):
        return self.values[:, :, self.names.index(name)]

    def valid(self):
        return np.isin(np.asarray(self.status), _HAS_STORE)


def _parse_ensemble(text) -> _Ensemble:
    rows = list(csv.reader(io.StringIO(text)))
    names = rows[0][2:-1]
    times = []
    for row in rows[1:]:
        if row[0] != "0":
            break
        times.append(float(row[1]))
    runs = (len(rows) - 1) // len(times)
    values = np.full((runs, len(times), len(names)), np.nan)
    status = [[None] * len(times) for _ in range(runs)]
    for k, row in enumerate(rows[1:]):
        r, i = divmod(k, len(times))
        if int(row[0]) != r or float(row[1]) != times[i]:
            raise ValueError(f"unexpected CSV row order at row {k}")
        status[r][i] = row[-1]
        if row[-1] in _HAS_STORE:
            values[r, i] = [float(v) for v in row[2:-1]]
    return _Ensemble(names, times, values, status)


def _check_stat(stat, ens, text):
    lines = text.splitlines()
    kind = stat[0]
    valid = ens.valid()
    runs = valid.shape[0]
    if kind == "hist":
        _, var, t, bins = stat
        i = ens.times.index(t)
        values = ens.var(var)[valid[:, i], i]
        want = [["bin_left", "bin_right", "count"]]
        if len(values):
            counts, edges = np.histogram(values, bins=bins)
            want += [[float(edges[b]), float(edges[b + 1]), int(counts[b])] for b in range(bins)]
        want.append(["excluded", "", runs - len(values)])
        got = [lines[0].split(",")] + [_cells(line) for line in lines[1:]]
        return None if got == want else f"histogram differs from numpy: {got} != {want}"
    c = float(stat[2])
    hit = valid & (ens.var(stat[1]) <= c)
    if kind == "check":
        want = [["t", "fraction", "excluded"]] + [
            [t, int(np.count_nonzero(hit[:, i])) / runs, int(np.count_nonzero(~valid[:, i]))]
            for i, t in enumerate(ens.times)]
        got = [lines[0].split(",")] + [_cells(line) for line in lines[1:]]
        return None if got == want else "probability series differs from numpy"
    a, b = stat[3], stat[4]
    window = [i for i, t in enumerate(ens.times) if a <= t <= b]
    hits = int(np.count_nonzero(hit[:, window].any(axis=1)))
    excluded = int(np.count_nonzero(~valid[:, window].any(axis=1)))
    want = [["fraction", hits / runs], ["satisfying_runs", hits], ["runs", runs],
            ["excluded", excluded]]
    got = [_cells(line) for line in lines[:4]]
    return None if got == want else f"interval probability differs from numpy: {got} != {want}"


def _cells(line):
    out = []
    for cell in line.split(","):
        try:
            out.append(int(cell))
        except ValueError:
            try:
                out.append(float(cell))
            except ValueError:
                out.append(cell)
    return out
