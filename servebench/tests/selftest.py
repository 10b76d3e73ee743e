#!/usr/bin/env python3
"""Self-test of the serving benchmark.

Plays one timed day (12 windows) of every workload in BENCHMARK.json, and
of the driver's ungated ones, once untraced and once traced, at the
workloads' default seeds. Each run must pass its output check, which at the
default seed includes the recorded reference counts, and must emit exactly
the metrics BENCHMARK.json names, with their units. Run from the repository
root:

    python3 servebench/tests/selftest.py
"""

import importlib.util
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


def load_run_module():
    spec = importlib.util.spec_from_file_location(
        "servebench_run", os.path.join(BENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.run_module = load_run_module()
        cls.driver = cls.run_module.build()

    def play(self, workload, trace):
        out = subprocess.run(
            [self.driver, "--workload", workload, "--seconds", "1",
             "--trace", str(trace), "--timed-windows", "12",
             "--trace-out", os.path.join(self.run_module.build_dir(),
                                         "traces", "selftest.jsonl")],
            capture_output=True, text=True, timeout=180)
        self.assertEqual(out.returncode, 0, out.stderr)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def check(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 12)
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for name in names + list(self.run_module.UNGATED_WORKLOADS):
            with self.subTest(workload=name, trace=0):
                self.check(self.play(name, 0), self.spec["end_to_end"])
            with self.subTest(workload=name, trace=1):
                self.check(self.play(name, 1), self.spec["per_layer"])


if __name__ == "__main__":
    unittest.main()
