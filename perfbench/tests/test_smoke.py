"""Toy-scale smoke test of the benchmark.

Runs every workload in `--smoke` mode, untraced and traced, and checks
that each prints every metric BENCHMARK.json names with its unit, that
the traced run's trace file parses and its spans nest, and that the
benchmark refuses to run where the repository's sources are missing.

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
SEED = 7


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "3", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


class Smoke(unittest.TestCase):
    def check_metrics(self, workload, trace):
        done = run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-4000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr[-4000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        listed = BENCH["per_layer" if trace else "end_to_end"]
        expected = {m["name"]: m["unit"] for m in listed}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], float, name)

    def check_trace(self, workload):
        path = os.path.join(ROOT, ".bench_work", "trace", f"{workload}-seed{SEED}.json")
        with open(path) as f:
            trace = json.load(f)
        spans = trace["spans"]
        self.assertTrue(spans)
        self.assertTrue(trace["nests"])
        for i, span in enumerate(spans):
            self.assertLessEqual(span["start_us"], span["end_us"])
            parent = span["parent"]
            if parent is not None:
                self.assertLess(parent, i)
                self.assertLessEqual(spans[parent]["start_us"], span["start_us"])
                self.assertLessEqual(span["end_us"], spans[parent]["end_us"])
        self.assertIn("serve.unattributed_ms", trace["per_layer"])
        self.assertTrue(trace["self_ms"])

    def test_every_workload_emits_every_metric(self):
        for workload in (w["name"] for w in BENCH["workloads"]):
            with self.subTest(workload=workload, trace=0):
                self.check_metrics(workload, 0)
            with self.subTest(workload=workload, trace=1):
                self.check_metrics(workload, 1)
                self.check_trace(workload)

    def test_refuses_without_the_repository(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            done = run(BENCH["workloads"][0]["name"], 0, cwd=tmp)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
