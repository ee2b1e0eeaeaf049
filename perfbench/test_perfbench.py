"""Tests of the benchmark itself: a tiny-scale smoke run of every workload
through the same code path as a real run, and negative cases showing that a
perturbed moment or a mismatched completion counts as a failure.

    python3 -m unittest perfbench/test_perfbench.py

The gate functions have their own unit tests in the helper package:

    cargo test --release --offline --manifest-path perfbench/harness/Cargo.toml
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402


def bench(workload, trace=0, inject="none", seconds=1):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", str(seconds), "--trace", str(trace), "--scale", "tiny",
         "--inject", inject],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def check_result(self, result, names):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(names))
        for name, m in result["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"}, name)
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_reports_every_end_to_end_metric(self):
        for workload in [*run.ONE_SHOT, *run.MIXES]:
            with self.subTest(workload=workload):
                result = bench(workload)
                self.check_result(result, run.END_TO_END)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, f"{workload} {name}")

    def test_traced_run_reports_every_layer_metric(self):
        self.check_result(bench("fig5", trace=1), run.LAYERS)
        record = json.loads((run.OUT / "fig5-5-trace1.json").read_text())
        self.assertEqual(record["mix_digests"]["mismatched"], 0)
        self.assertGreater(record["mix_digests"]["compared_jobs"], 0)
        for name, m in record["metrics"].items():
            self.assertTrue(m["moves"] and m["on"], name)


class Gates(unittest.TestCase):
    def test_a_perturbed_moment_fails_the_run(self):
        result = bench("fig5", inject="moment")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_a_mismatched_completion_fails_the_run(self):
        for workload in run.MIXES:
            with self.subTest(workload=workload):
                result = bench(workload, inject="completion")
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)


class Stats(unittest.TestCase):
    def test_quantile_interpolates_between_order_statistics(self):
        self.assertAlmostEqual(run.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6)
        self.assertEqual(run.quantile([2.0], 0.9), 2.0)

    def test_dup_miss_counts_overlapping_misses_on_one_key(self):
        jobs = [
            {"key": "a", "cache": "miss", "submit_s": 0.0, "done_s": 1.0},
            {"key": "a", "cache": "miss", "submit_s": 0.5, "done_s": 1.2},
            {"key": "b", "cache": "miss", "submit_s": 2.0, "done_s": 3.0},
            {"key": "a", "cache": "hit", "submit_s": 2.5, "done_s": 2.6},
        ]
        self.assertAlmostEqual(run.dup_miss_ratio(jobs), 1 / 3)


if __name__ == "__main__":
    unittest.main()
