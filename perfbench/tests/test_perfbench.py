#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py

Run from the repository root. The workloads run at the sizes the
benchmark measures, with a short timed phase. Each must pass its output
checks and print exactly the metrics BENCHMARK.json names; a run given a wrong
expected digest (the negative control) must fail; and run.py must refuse
to run in a directory that holds only the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ["scan_sweep", "served_mix", "ingest_live"]
SHORT = ["--seconds", "2"]


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def metric_names(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[section]}


class WorkloadTest(unittest.TestCase):
    def check(self, workload, trace):
        code, result, err = run_bench("--workload", workload, "--seed", "7",
                                      "--trace", trace, *SHORT)
        self.assertEqual(code, 0, err[-2000:])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        section = "per_layer" if trace == "1" else "end_to_end"
        self.assertEqual(set(result["metrics"]), metric_names(section))
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, "0")

    def test_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, "1")


class NegativeControlTest(unittest.TestCase):
    def test_wrong_expected_digest_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, err = run_bench(
                    "--workload", workload, "--seed", "7", "--trace", "0",
                    "--corrupt-reference", *SHORT)
                self.assertNotEqual(code, 0, err[-2000:])
                self.assertFalse(result["correct"])
                self.assertIn("mismatch", err)


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "scan_sweep", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, timeout=180,
                env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
