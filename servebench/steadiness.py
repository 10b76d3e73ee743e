#!/usr/bin/env python3
"""Run-to-run spread of the serving benchmark's end-to-end metrics.

Runs every workload (or --workloads) once per seed 1..--seeds, untraced,
for run_seconds from BENCHMARK.json. For each end-to-end metric it reports
the median and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. Run from the repository root:

    python3 servebench/steadiness.py --seeds 10 --out servebench/results/steadiness.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import ROOT, build


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    driver = build()
    seeds = range(1, args.seeds + 1)

    summary = {"run_seconds": spec["run_seconds"], "seeds": list(seeds),
               "workloads": {}}
    for workload in workloads:
        values = {}
        for seed in seeds:
            out = subprocess.run(
                [driver, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit("%s seed %d failed: %s" % (workload, seed, out.stderr))
            print(workload, seed, " ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in result["metrics"].items()), flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {"median": median, "spread": spread,
                          "bound": bounds[name], "values": vals}
            print("  %-16s median %-12.6g spread %.4f  bound %.2f" %
                  (name, median, spread, bounds[name]), flush=True)
        summary["workloads"][workload] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
