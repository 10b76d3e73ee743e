#!/usr/bin/env python3
"""Self-test of tools/check_bench_regression.py over the JSON fixtures in
this directory. Every fresh_*.json is diffed against baseline.json; its
top-level "expect" block (ignored by the gate itself) names the exit code
the gate must return and the lines its output must contain.

Usage: tests/bench_gate/check_bench_regression_test.py
Exits 0 when every fixture behaves as expected, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GATE = os.path.join(HERE, "..", "..", "tools", "check_bench_regression.py")


def main():
    baseline = os.path.join(HERE, "baseline.json")
    fixtures = sorted(f for f in os.listdir(HERE)
                      if f.startswith("fresh_") and f.endswith(".json"))
    failures = 0
    for name in fixtures:
        path = os.path.join(HERE, name)
        with open(path) as handle:
            expect = json.load(handle)["expect"]
        run = subprocess.run([sys.executable, GATE, baseline, path],
                             capture_output=True, text=True, check=False)
        problems = []
        if run.returncode != expect["exit"]:
            problems.append(f"exit {run.returncode}, want {expect['exit']}")
        for line in expect["contains"]:
            if line not in run.stdout:
                problems.append(f"output lacks {line!r}")
        if problems:
            failures += 1
            print(f"FAIL {name}: " + "; ".join(problems))
            print(run.stdout + run.stderr)
        else:
            print(f"ok   {name}")
    if not fixtures:
        print("FAIL: no fresh_*.json fixtures found")
        return 1
    print(f"bench-gate selftest: {len(fixtures)} fixtures, "
          f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
