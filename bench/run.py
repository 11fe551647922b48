"""swhile benchmark: closed-loop workloads timed end to end and per layer.

    python3 bench/run.py --workload hybrid_mc --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One client issues the next op only after the previous one returns.  The
op list comes from the seed (see workloads.py); the timed phase repeats it
until --seconds have passed, at least once.  With --trace 0 the run
reports the end-to-end metrics, op times at reference speed and at each
op's lower quartile over the passes (see README.md); with --trace 1 it makes one untraced pass and
two traced passes and reports per-layer metrics from the first traced
pass and the tracing overhead, and fails if the two passes' counts differ.
Outputs are checked after the timed phase (checks.py).  Every metric is
printed as `name value unit`; the last line is the JSON result.  The exit
code is 1 if any check failed, 2 if the checkout holds no swhile sources.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUP_PROBES = 5
CANONICAL_OPS = 6  # simulate ops per run whose fast-mode values meet a canonical rerun

# Reference-speed timing.  On a shared machine the CPU's speed drifts by
# tens of percent over seconds, for CPU time as much as for wall time.  A
# fixed pure-Python kernel is timed before every op; each op's latency is
# scaled by CAL_REF_S over the median kernel time of the ops around it, so
# it reads as the latency at the speed where the kernel takes CAL_REF_S.
CAL_REF_S = 4.0e-4  # median kernel time on the 2-core reference machine
CAL_WINDOW = 10  # ops on each side whose kernel times set an op's speed
SETUP_KERNELS = 9  # kernel timings a set-up probe takes for its own speed

# (name, unit, better); the order is the order of BENCHMARK.json's end_to_end
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def prepare() -> None:
    """Make the checkout's own sources importable, or exit 2."""
    src = ROOT / "src"
    if not (src / "swhile" / "__init__.py").is_file() or not (ROOT / "programs").is_dir():
        print(f"no swhile sources under {ROOT}: expected src/swhile and programs/", file=sys.stderr)
        raise SystemExit(2)
    os.chdir(ROOT)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))


def setup(workload: str, seed: int):
    """Import swhile, parse the workload's programs, generate its op list."""
    import swhile  # noqa: F401  (the import is part of set-up time)
    from swhile.parser import parse_file
    from workloads import make_ops, program_path, programs_of

    ops = make_ops(workload, seed)
    programs = {name: parse_file(program_path(name)) for name in sorted(programs_of(ops))}
    return ops, programs


def execute(op, programs):
    """Run one op; returns (exit code, captured stdout)."""
    from swhile import bigstep, cli
    from swhile.entropy import from_seed
    from swhile.store import make_store
    from workloads import Agree

    if isinstance(op, Agree):
        program, table = programs[op.program]
        report = bigstep.check_agreement(program, make_store(table), op.time, from_seed(op.seed))
        return 0, report.to_json()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(op.argv())
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _kernel() -> int:
    acc = 0
    store = (0.0, 1.0, 2.0)
    for i in range(1000):
        store = store[:1] + (store[1] + i,) + store[2:]
        acc += len(store) * (i % 7)
    return acc


def _kernel_seconds() -> float:
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Pass:
    """One closed-loop pass over the op list.

    `latencies`, `wall` and `cpu` are as measured; `scaled` and `ref_wall`
    are the same at reference speed.  Kernel timings are excluded from all
    of them.
    """

    def __init__(self, ops, programs, tracer=None, keep_text=False):
        self.latencies = []
        self.codes = []
        self.digests = []
        self.texts = [] if keep_text else None
        self.errors = {}
        kernel = []
        cpu0 = _cpu()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
            kernel.append(_kernel_seconds())
            t0 = time.perf_counter()
            try:
                rc, text = execute(op, programs)
            except Exception as exc:  # an op that raises counts as failed
                rc, text = None, ""
                self.errors[i] = repr(exc)
            self.latencies.append(time.perf_counter() - t0)
            self.codes.append(rc)
            self.digests.append(_digest(text))
            if keep_text:
                self.texts.append(text)
        self.cpu = _cpu() - cpu0 - sum(kernel)
        self.wall = sum(self.latencies)
        self.scaled = [
            lat * CAL_REF_S / statistics.median(kernel[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
            for i, lat in enumerate(self.latencies)]
        self.ref_wall = sum(self.scaled)


def probe_setup_seconds(workload: str, seed: int):
    """Median time from process start until the op list is ready, as
    measured and at reference speed.

    Each probe process times the kernel itself once it is ready, because
    it may run on the other core.
    """
    measured = []
    scaled = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(BENCH / "run.py"), "--probe-setup",
                               "--workload", workload, "--seed", str(seed)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            measured.append(time.perf_counter() - start)
            kernel = proc.stdout.read().split()
        if proc.returncode != 0 or line != "ready\n" or len(kernel) != 1:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        scaled.append(measured[-1] * CAL_REF_S / float(kernel[0]))
    return statistics.median(measured), statistics.median(scaled)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def check_passes(ops, programs, reference: Pass, others, seed: int):
    """Failure reasons per op instance, from checks on the reference pass's
    outputs and byte-equality of every other pass with it."""
    from checks import Checker
    from workloads import Simulate

    def rerun(op):
        return execute(op, programs)

    rng = random.Random(seed)
    simulated = [i for i, op in enumerate(ops) if isinstance(op, Simulate)]
    canonical = set(rng.sample(simulated, min(CANONICAL_OPS, len(simulated))))
    checker = Checker(programs, rerun, rng)
    failures = []
    for i, op in enumerate(ops):
        if i in reference.errors:
            reason = f"raised {reference.errors[i]}"
        else:
            try:
                reason = checker.check_op(op, reference.codes[i], reference.texts[i],
                                          i in canonical)
            except Exception as exc:  # unreadable output fails the op, not the run
                reason = f"check raised {exc!r}"
        if reason:
            failures.append((0, i, reason))
        for p, other in enumerate(others, 1):
            if other.digests[i] != reference.digests[i] or i in other.errors:
                failures.append((p, i, "output differs from the checked pass"))
            elif reason:
                failures.append((p, i, reason))
    return failures, len(canonical)


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _lower_quartile(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def _timings(passes, scaled: bool) -> dict:
    """Timings from each op's lower-quartile latency over the passes: their
    sum is one pass's wall time, their percentiles the op latencies, and
    CPU time is the sum times the timed phase's CPU-to-wall ratio."""
    typical = [_lower_quartile(lats)
               for lats in zip(*(p.scaled if scaled else p.latencies for p in passes))]
    wall = sum(typical)
    return {
        "wall_s": wall,
        "op_p50_ms": statistics.median(typical) * 1e3,
        "op_p90_ms": _quantile(typical, 90) * 1e3,
        "cpu_s": wall * sum(p.cpu for p in passes) / sum(p.wall for p in passes),
    }


def measure_end_to_end(workload, seed, seconds):
    setup_s, ref_setup_s = probe_setup_seconds(workload, seed)
    ops, programs = setup(workload, seed)
    start = time.perf_counter()
    passes = [Pass(ops, programs, keep_text=True)]
    while time.perf_counter() - start < seconds:
        passes.append(Pass(ops, programs))
    peak = _peak_rss_mb()
    failures, canonical = check_passes(ops, programs, passes[0], passes[1:], seed)
    metrics = {"setup_s": ref_setup_s, **_timings(passes, True), "peak_rss_mb": peak}
    measured = {"setup_s": setup_s, **_timings(passes, False)}
    info = {"ops_per_pass": len(ops), "passes": len(passes), "canonical_reruns": canonical,
            "as_measured": measured,
            "pass_wall_s": [round(p.wall, 4) for p in passes],
            "pass_ref_wall_s": [round(p.ref_wall, 4) for p in passes]}
    return metrics, len(ops) * len(passes), failures, info


def measure_layers(workload, seed):
    from tracing import Tracer

    ops, programs = setup(workload, seed)
    plain = Pass(ops, programs, keep_text=True)
    traced = []
    tracers = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(Pass(ops, programs, tracer=tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    failures, canonical = check_passes(ops, programs, plain, traced, seed)
    first, second = (t.count_metrics() for t in tracers)
    if first != second:
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        failures.append((2, -1, f"per-layer counts differ between traced passes: {diff}"))
    metrics = tracers[0].layer_metrics()
    metrics["trace.overhead_s"] = traced[0].ref_wall - plain.ref_wall
    OUT.mkdir(exist_ok=True)
    tracers[0].write_spans(OUT / f"spans-{workload}.jsonl")
    info = {"ops_per_pass": len(ops), "passes": 3, "untraced_ref_wall_s": plain.ref_wall,
            "traced_ref_wall_s": traced[0].ref_wall, "canonical_reruns": canonical}
    return metrics, len(ops) * 3, failures, info


def run_one(args) -> int:
    if args.trace:
        from tracing import PER_LAYER as declared
        metrics, attempted, failures, info = measure_layers(args.workload, args.seed)
    else:
        declared = END_TO_END
        metrics, attempted, failures, info = measure_end_to_end(args.workload, args.seed,
                                                                args.seconds)
    failed = len({(p, i) for p, i, _ in failures})
    for p, i, reason in failures[:20]:
        print(f"FAILED pass {p} op {i}: {reason}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          + " ".join(f"{k} {v}" for k, v in info.items()))
    print(f"attempted {attempted} failed {failed} failed_frac {failed / attempted}")
    result = {name: {"value": metrics[name], "unit": unit} for name, unit, _ in declared}
    for name, entry in result.items():
        print(f"{name} {entry['value']} {entry['unit']}")
    OUT.mkdir(exist_ok=True)
    suffix = "_trace" if args.trace else ""
    with open(OUT / f"BENCH_{args.workload}{suffix}.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, **info, "attempted": attempted, "failed": failed,
                   "failures": failures, "metrics": result}, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    from workloads import WORKLOADS

    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                print(f"{workload} trace {trace}: exit code {proc.returncode}")
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    prepare()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {list(WORKLOADS)} or 'all'")
    if args.probe_setup:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        print(repr(statistics.median(_kernel_seconds() for _ in range(SETUP_KERNELS))))
        return 0
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
