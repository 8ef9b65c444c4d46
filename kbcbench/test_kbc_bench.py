#!/usr/bin/env python3
"""Smoke tests of the end-to-end KBC benchmark.

    python3 kbcbench/test_kbc_bench.py

Runs every workload of BENCHMARK.json at the smoke scale, untraced and
traced, through run.py (building on first use), and checks that:
  - the run passes its own output checks (traced vs untraced epoch bytes
    and graph CRC, served answers vs ProbabilityOf, query accounting,
    epoch monotonicity, stream byte budget) and exits 0;
  - every metric BENCHMARK.json names is emitted, with its unit, finite;
  - the traced run's ledger leaves at most 5% of wall time unattributed.
It also checks that the benchmark fails without printing a result when
the system sources are missing.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, os.path.join(cwd, "kbcbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--scale", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-4000:])
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        for metric in wanted:
            self.assertIn(metric["name"], result["metrics"])
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(got["value"]), metric["name"])
        if trace:
            self.assertLessEqual(result["metrics"]["ledger.unattributed_frac"]["value"], 0.05)
        return result

    def test_workloads(self):
        for workload in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=workload["name"], trace=trace):
                    self.check_run(workload["name"], trace)

    def test_same_seed_same_quality(self):
        first = self.check_run("spouse_update", 0)["metrics"]
        second = self.check_run("spouse_update", 0)["metrics"]
        for name in ("f1", "calib_gap"):
            self.assertEqual(first[name]["value"], second[name]["value"], name)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "kbcbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("spouse_update", 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
