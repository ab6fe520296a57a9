"""Tiny-scale smoke test of the AIQL benchmark.

    python3 -m unittest discover -s aiqlbench/tests -v     # from the repo root

Each workload runs for one second on the tiny scenario, untraced and
traced, and must print every metric BENCHMARK.json names for that mode,
with its unit. A run fed one deliberately wrong reference fingerprint must
count the failure, report correct = false and exit non-zero.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, *extra):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny",
         *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done, result


class SmokeTest(unittest.TestCase):

    def check_metrics(self, workload, trace, expected):
        done, result = run_bench(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        got = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
        want = {metric["name"]: metric["unit"] for metric in expected}
        self.assertEqual(got, want)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def check_workload(self, workload):
        self.check_metrics(workload, 0, SPEC["end_to_end"])
        self.check_metrics(workload, 1, SPEC["per_layer"])
        done, result = run_bench(workload, 0, "--corrupt-reference")
        self.assertNotEqual(done.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_hot_investigation(self):
        self.check_workload("hot-investigation")

    def test_cold_investigation(self):
        self.check_workload("cold-investigation")

    def test_served_ingest(self):
        self.check_workload("served-ingest")

    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         ["cold-investigation", "served-ingest"])


if __name__ == "__main__":
    unittest.main()
