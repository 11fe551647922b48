"""Benchmark-side tracing: wrappers patched over swhile's public functions.

A `Tracer` replaces, for the duration of one traced pass, the module
attributes the package actually calls through (for example `swhile.ode.flow`,
and `eval_expr` in every module that imports it by name) with wrappers that
either record a span -- name, start, end, parent span, op id -- or only
count calls where the wrapper would cost more than the call.  Spans stay in
memory; `layer_metrics` folds them into per-layer counts and self times
(span duration minus the time its child spans cover).

Calls made inside `--parallel` worker processes are not seen: only the
fan-out itself (`montecarlo.pool.*`) and what the parent process does are.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

import numpy as np

from swhile import bigstep, cli, denotational, entropy, measure, montecarlo, ode, smallstep

FLOW_KINDS = ("nilpotent", "expm", "rk4", "halted")
STATS = ("probability_over_time", "interval_probability", "histogram", "moments")
EXPORTS = ("write_ensemble_csv", "write_series_csv", "write_histogram_csv",
           "ensemble_json", "write_ensemble_json")
POINTS = {montecarlo.Value: "value", montecarlo.TerminatedEarly: "terminated",
          montecarlo.ErrorAt: "error", montecarlo.Diverged: "diverged"}

# (name, unit, better); the order is the order of BENCHMARK.json's per_layer
PER_LAYER = (
    [(f"ode.flow.calls.{k}", "count", "lower") for k in FLOW_KINDS]
    + [(f"ode.flow.s.{k}", "s", "lower") for k in FLOW_KINDS]
    + [("montecarlo.run_ensemble.s", "s", "lower"),
       ("montecarlo.sample_trajectory.calls", "count", "lower")]
    + [(f"montecarlo.points.{p}", "count", "higher" if p == "value" else "lower")
       for p in POINTS.values()]
    + [("montecarlo.stats.s", "s", "lower"),
       ("montecarlo.export.s", "s", "lower"),
       ("montecarlo.pool.s", "s", "lower"),
       ("montecarlo.pool.tasks", "count", "lower"),
       ("store.eval_expr.calls", "count", "lower"),
       ("store.eval_bool.calls", "count", "lower"),
       ("entropy.draws", "count", "lower"),
       ("entropy.split_seed.calls", "count", "lower"),
       ("smallstep.trace.s", "s", "lower"),
       ("smallstep.run_to_terminal.s", "s", "lower"),
       ("smallstep.steps", "count", "lower"),
       ("bigstep.eval_big.s", "s", "lower"),
       ("bigstep.eval_functional.calls", "count", "lower"),
       ("bigstep.eval_functional.s", "s", "lower"),
       ("bigstep.check_agreement.s", "s", "lower"),
       ("denotational.adequacy_check.s", "s", "lower"),
       ("denotational.enumerate_operational.s", "s", "lower"),
       ("denotational.denote.s", "s", "lower"),
       ("denotational.branches", "count", "lower"),
       ("denotational.useful_branch_ratio", "ratio", "higher"),
       ("measure.DiscMeasure.created", "count", "lower"),
       ("measure.kleisli_extend.calls", "count", "lower"),
       ("measure.tv_distance.s", "s", "lower"),
       ("measure.support.operational", "count", "lower"),
       ("measure.support.denotational", "count", "lower"),
       ("parser.parse_file.s", "s", "lower"),
       ("parser.parse_file.calls", "count", "lower"),
       ("parser.parse_bool_expr.s", "s", "lower"),
       ("cli.main.s", "s", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.spans", "count", "lower")]
)


def _affine_kind(sys):
    """nilpotent/expm/halted from the augmented matrix, or None if non-affine."""
    affine = ode.classify_affine(sys)
    if affine is None:
        return None
    a, c = affine
    n = len(c)
    m = np.zeros((n + 1, n + 1))
    m[:n, :n] = a
    m[:n, n] = c
    power = m
    for k in range(1, n + 2):
        if not power.any():
            return "halted" if k == 1 else "nilpotent"
        power = power @ m
    return "expm"


class Tracer:
    def __init__(self):
        self.op_id = -1
        self.spans = []  # (id, name, start, end, parent id, op id)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()  # spans closed, per name
        self.counts = Counter()  # counted-only events
        self._stack = []
        self._next_id = 0
        self._kinds = {}  # id(derivs) -> (derivs, affine kind)
        self._patches = []

    # --- spans -------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, name, parent, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame):
        end = time.perf_counter()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[1]} closed out of order")
        sid, name, parent, start, child = frame
        duration = end - start
        self.total[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][4] += duration
        self.spans.append((sid, name, start, end, parent, self.op_id))

    def _span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            frame = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(frame)
            if after is not None:
                after(result)
            return result
        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # --- installation ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def install(self):
        span, count, patch, counts = self._span, self._count, self._patch, self.counts
        for mod in (smallstep, bigstep, montecarlo, ode, denotational):
            patch(mod, "eval_expr", count("store.eval_expr.calls", mod.eval_expr))
        for mod in (smallstep, bigstep, montecarlo, denotational):
            patch(mod, "eval_bool", count("store.eval_bool.calls", mod.eval_bool))
        for cls in (entropy.PrngStream, entropy.Enumerator):
            patch(cls, "draw", count("entropy.draws", cls.draw))
        patch(montecarlo, "split_seed", count("entropy.split_seed.calls", montecarlo.split_seed))
        patch(ode, "flow", self._flow(ode.flow))

        def points(ensemble):
            for traj in ensemble.trajectories:
                for pt in traj.points:
                    counts[f"montecarlo.points.{POINTS[type(pt)]}"] += 1

        patch(montecarlo, "run_ensemble",
              span("montecarlo.run_ensemble", montecarlo.run_ensemble, points))
        patch(montecarlo, "sample_trajectory",
              count("montecarlo.sample_trajectory.calls", montecarlo.sample_trajectory))
        for name in STATS:
            patch(montecarlo, name, span(f"montecarlo.stats.{name}", getattr(montecarlo, name)))
        for name in EXPORTS:
            patch(montecarlo, name, span(f"montecarlo.export.{name}", getattr(montecarlo, name)))
        patch(montecarlo, "ProcessPoolExecutor", self._pool(montecarlo.ProcessPoolExecutor))

        def steps(result):
            counts["smallstep.steps"] += result[1]

        close = smallstep._close

        def counted_close(*args, **kwargs):
            result = close(*args, **kwargs)
            steps(result)
            return result

        patch(smallstep, "_close", counted_close)
        patch(cli, "trace", span("smallstep.trace", cli.trace))
        patch(bigstep, "run_to_terminal", span("smallstep.run_to_terminal", bigstep.run_to_terminal))
        patch(bigstep, "eval_big", span("bigstep.eval_big", bigstep.eval_big))
        patch(bigstep, "eval_functional", span("bigstep.eval_functional", bigstep.eval_functional))
        patch(bigstep, "check_agreement", span("bigstep.check_agreement", bigstep.check_agreement))

        def branch(out):
            counts["denotational.branches"] += 1
            if out is not bigstep.BOTTOM:
                counts["denotational.useful_branches"] += 1

        patch(denotational, "eval_functional",
              span("bigstep.eval_functional", denotational.eval_functional, branch))

        def supports(report):
            counts["measure.support.operational"] += report.operational_support
            counts["measure.support.denotational"] += report.denotational_support

        patch(denotational, "adequacy_check",
              span("denotational.adequacy_check", denotational.adequacy_check, supports))
        patch(denotational, "enumerate_operational",
              span("denotational.enumerate_operational", denotational.enumerate_operational))
        patch(denotational, "tv_distance", span("measure.tv_distance", denotational.tv_distance))
        patch(denotational, "kleisli_extend",
              count("measure.kleisli_extend.calls", denotational.kleisli_extend))
        patch(measure.DiscMeasure, "__init__",
              count("measure.DiscMeasure.created", measure.DiscMeasure.__init__))
        patch(cli, "parse_file", span("parser.parse_file", cli.parse_file))
        patch(cli, "parse_bool_expr", span("parser.parse_bool_expr", cli.parse_bool_expr))
        patch(cli, "main", span("cli.main", cli.main))

    def _flow(self, flow):
        kinds = self._kinds

        def traced_flow(sys, store, tau, method=None):
            if isinstance(method, ode.RungeKutta4):
                kind = "rk4"
            else:
                entry = kinds.get(id(sys.derivs))
                if entry is None:
                    entry = kinds[id(sys.derivs)] = (sys.derivs, _affine_kind(sys))
                kind = entry[1] or ("rk4" if method is None else "undefined")
            frame = self.open(f"ode.flow.{kind}")
            try:
                return flow(sys, store, tau, method)
            finally:
                self.close(frame)
        return traced_flow

    def _pool(self, base):
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                self._frame = tracer.open("montecarlo.pool")
                super().__init__(*args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                tasks = list(iterables[0])
                tracer.counts["montecarlo.pool.tasks"] += len(tasks)
                return super().map(fn, tasks, *iterables[1:], **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._frame is not None:
                        tracer.close(self._frame)
                        self._frame = None

        return TracedPool

    # --- results -----------------------------------------------------------

    def count_metrics(self) -> dict:
        """The exact counts; two traced passes over the same ops must agree."""
        m = {f"ode.flow.calls.{k}": self.calls[f"ode.flow.{k}"] for k in FLOW_KINDS}
        for name in ("montecarlo.sample_trajectory.calls", "montecarlo.pool.tasks",
                     "store.eval_expr.calls", "store.eval_bool.calls", "entropy.draws",
                     "entropy.split_seed.calls", "smallstep.steps", "denotational.branches",
                     "measure.DiscMeasure.created", "measure.kleisli_extend.calls",
                     "measure.support.operational", "measure.support.denotational"):
            m[name] = self.counts[name]
        for p in POINTS.values():
            m[f"montecarlo.points.{p}"] = self.counts[f"montecarlo.points.{p}"]
        m["bigstep.eval_functional.calls"] = self.calls["bigstep.eval_functional"]
        m["parser.parse_file.calls"] = self.calls["parser.parse_file"]
        branches = self.counts["denotational.branches"]
        m["denotational.useful_branch_ratio"] = (
            self.counts["denotational.useful_branches"] / branches if branches else 0.0)
        m["trace.spans"] = len(self.spans)
        return m

    def layer_metrics(self) -> dict:
        """Counts plus self times; adequacy_check.s is a total and denote.s is
        adequacy minus enumeration minus tv."""
        s = self.self_time
        m = self.count_metrics()
        for k in FLOW_KINDS:
            m[f"ode.flow.s.{k}"] = s[f"ode.flow.{k}"]
        m["montecarlo.stats.s"] = sum(s[f"montecarlo.stats.{n}"] for n in STATS)
        m["montecarlo.export.s"] = sum(s[f"montecarlo.export.{n}"] for n in EXPORTS)
        for name in ("montecarlo.run_ensemble", "montecarlo.pool", "smallstep.trace",
                     "smallstep.run_to_terminal", "bigstep.eval_big",
                     "bigstep.eval_functional", "bigstep.check_agreement",
                     "denotational.enumerate_operational", "measure.tv_distance",
                     "parser.parse_file", "parser.parse_bool_expr", "cli.main"):
            m[f"{name}.s"] = s[name]
        m["denotational.adequacy_check.s"] = self.total["denotational.adequacy_check"]
        m["denotational.denote.s"] = (self.total["denotational.adequacy_check"]
                                      - self.total["denotational.enumerate_operational"]
                                      - self.total["measure.tv_distance"])
        return m

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["id", "name", "start", "end", "parent", "op"]\n')
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
