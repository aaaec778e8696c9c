#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_run.py    # from the root of a checkout

A short run of every workload must emit every metric BENCHMARK.json names,
with its unit; a wrong output injected into the fused operator's buffer
must be counted as a failure, not reported as a pass; and outside a
checkout the benchmark must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
TARGET = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def run(workload, trace, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900,
        env=dict(os.environ, CARGO_TARGET_DIR=TARGET),
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def test_every_workload_emits_every_declared_metric_with_its_unit(self):
        for workload in SPEC["workloads"]:
            for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload["name"], trace=trace):
                    r = result_of(run(workload["name"], trace))
                    self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in declared}
                    got = {name: m["unit"] for name, m in r["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in r["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_injected_wrong_output_is_counted_not_passed(self):
        r = result_of(run("a2a-comm", 0, "--inject-error"))
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], 1)
        self.assertLess(r["metrics"]["verified_rate"]["value"], 1.0)

    def test_fails_without_a_result_outside_a_checkout(self):
        os.makedirs(TARGET, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=TARGET) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(
                os.path.join(ROOT, "perfbench"),
                os.path.join(bare, "perfbench"),
                ignore=shutil.ignore_patterns("target", "__pycache__"),
            )
            proc = run("a2a-comm", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(any(l.startswith("{") for l in proc.stdout.splitlines()))


if __name__ == "__main__":
    unittest.main()
