"""Small-size self-test of the benchmark harness.

    python3 bench/selftest.py

Runs a few ops of every workload through the same code the benchmark
uses and checks that: outputs pass their checks, tampered outputs fail
them, two traced passes give identical per-layer counts, pool_mc prints
exactly what discrete_mc prints, BENCHMARK.json declares exactly the
metrics the harness reports, and the harness refuses to run without the
swhile sources.  Takes under a minute.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import unittest
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.prepare()

from checks import Checker  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, Run  # noqa: E402

SEED = 7
SMALL = 9  # ops per workload


def small(workload, seed=SEED):
    ops, programs = run.setup(workload, seed)
    return ops[:SMALL], programs


def traced_pass(ops, programs):
    tracer = Tracer()
    tracer.install()
    try:
        done = run.Pass(ops, programs, tracer=tracer)
    finally:
        tracer.uninstall()
    return done, tracer


class HarnessTest(unittest.TestCase):
    def test_declared_metrics_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(spec["command"], ["python3", "bench/run.py"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
        self.assertEqual(declared, list(run.END_TO_END))
        declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        self.assertEqual(declared, list(PER_LAYER))

    def test_small_passes_are_correct_and_counts_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                ops, programs = small(workload)
                plain = run.Pass(ops, programs, keep_text=True)
                first, tracer_a = traced_pass(ops, programs)
                second, tracer_b = traced_pass(ops, programs)
                failures, _ = run.check_passes(ops, programs, plain, [first, second], SEED)
                self.assertEqual(failures, [])
                self.assertEqual(tracer_a.count_metrics(), tracer_b.count_metrics())
                metrics = tracer_a.layer_metrics()
                metrics["trace.overhead_s"] = 0.0
                self.assertEqual(set(metrics), {name for name, _, _ in PER_LAYER})
                self.assertGreater(metrics["cli.main.s"], 0.0)

    def test_pool_prints_what_serial_prints(self):
        serial_ops, programs = small("discrete_mc")
        pool_ops, _ = small("pool_mc")
        self.assertEqual([replace(op, parallel=None) for op in pool_ops], serial_ops)
        serial, serial_tracer = traced_pass(serial_ops, programs)
        pool, pool_tracer = traced_pass(pool_ops, programs)
        self.assertEqual(serial.digests, pool.digests)
        serial_counts = serial_tracer.count_metrics()
        pool_counts = pool_tracer.count_metrics()
        # layers that run in the parent process see the same work
        for name in ("parser.parse_file.calls", "entropy.split_seed.calls",
                     "montecarlo.points.value", "montecarlo.points.terminated"):
            self.assertEqual(serial_counts[name], pool_counts[name], name)
        self.assertEqual(pool_counts["montecarlo.pool.tasks"],
                         serial_counts["montecarlo.sample_trajectory.calls"])

    def test_tampered_outputs_fail_their_checks(self):
        ops, programs = run.setup("hybrid_mc", SEED)
        checker = Checker(programs, lambda op: run.execute(op, programs), random.Random(0))
        for op in ops[:9]:
            rc, text = run.execute(op, programs)
            self.assertIsNone(checker.check_op(op, rc, text, canonical=True))
            rows = [line.split(",") for line in text.splitlines()]
            if op.stat[0] == "csv":  # move every run's first value at t = 0
                for row in rows[1:]:
                    if row[1] == "0.0":
                        row[2] = repr(float(row[2]) + 1e-9)
            else:  # a count in the first row of the statistic
                rows[1][-1] = str(int(rows[1][-1]) + 1)
            tampered = "".join(",".join(row) + "\n" for row in rows)
            self.assertIsNotNone(checker.check_op(op, rc, tampered, canonical=True), op)
        self.assertIsNotNone(checker.check_op(Run(10, 1), 0, "time-stop: x = 10.0\n"))
        self.assertIsNotNone(checker.check_op(ops[0], 2, ""))

    def test_result_line_and_missing_sources(self):
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                               "discrete_mc", "--seed", "3", "--seconds", "0.1"],
                              stdout=subprocess.PIPE, text=True, timeout=180)
        self.assertEqual(proc.returncode, 0)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(list(result["metrics"]), [name for name, _, _ in run.END_TO_END])

        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "bench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in BENCH.glob("*.*"):
            shutil.copy(path, bare / "bench")
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "hybrid_mc",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
