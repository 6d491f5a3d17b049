#!/usr/bin/env python3
"""The benchmark's own tests: seed determinism and the metric contract.

Run from anywhere (builds on first use, about a minute after that):

    python3 perfbench/tests/test_determinism.py

- The same seed gives the same request sequence (its printed hash), the same
  expected containers and a bit-identical ratio_pct.
- A different seed changes the sequence and leaves the correctness gate
  green: every response still matches its expected bytes.
- The result line names exactly the metrics BENCHMARK.json declares.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("suite_closed", "mixed_open", "decode_closed", "batch_suite")


def run(workload, seed, trace=0, seconds=1):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    plan = next(line for line in lines if line.startswith("plan "))
    fields = dict(token.split("=", 1) for token in plan.split()[1:])
    return fields, json.loads(lines[-1])


class SeedDeterminism(unittest.TestCase):
    def test_same_seed_same_plan_different_seed_still_correct(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                plan_a, result_a = run(workload, 7)
                plan_b, result_b = run(workload, 7)
                plan_c, result_c = run(workload, 8)
                self.assertEqual(plan_a["sequence_hash"], plan_b["sequence_hash"])
                self.assertNotEqual(plan_a["sequence_hash"], plan_c["sequence_hash"])
                self.assertEqual(plan_a["containers_hash"], plan_b["containers_hash"])
                self.assertEqual(plan_a["containers_hash"], plan_c["containers_hash"])
                ratios = {r["metrics"]["ratio_pct"]["value"]
                          for r in (result_a, result_b, result_c)}
                self.assertEqual(len(ratios), 1, ratios)
                self.assertEqual(plan_a["ratio_pct"], plan_b["ratio_pct"])
                for result in (result_a, result_b, result_c):
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)


class MetricContract(unittest.TestCase):
    def test_result_lines_name_the_declared_metrics(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        _, untraced = run("mixed_open", 3)
        _, traced = run("batch_suite", 3, trace=1)
        self.assertEqual(list(untraced["metrics"]),
                         [m["name"] for m in declared["end_to_end"]])
        self.assertEqual(list(traced["metrics"]),
                         [m["name"] for m in declared["per_layer"]])
        for result, group in ((untraced, "end_to_end"), (traced, "per_layer")):
            units = {m["name"]: m["unit"] for m in declared[group]}
            for name, metric in result["metrics"].items():
                self.assertEqual(metric["unit"], units[name], name)
        catalogue = json.loads((ROOT / "perfbench" / "metrics.json").read_text())
        self.assertEqual([m["name"] for m in catalogue["per_layer"]],
                         [m["name"] for m in declared["per_layer"]])


if __name__ == "__main__":
    unittest.main()
