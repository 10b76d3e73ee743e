#!/usr/bin/env python3
"""Traced run of every workload, ungated ones too, at its default seed.

Runs the driver with --trace 1 and writes, per workload, the per-layer
metrics and a per-day table of the replayed layers (times in ms, the guide's
node-level edge estimate and component count) built from the spans. Run from
the repository root:

    python3 servebench/traced_run.py --out servebench/results/traced_run.json
"""

import argparse
import json
import os
import subprocess

from run import ROOT, UNGATED_WORKLOADS, build, build_dir

LAYERS = ("gen.arrivals_for_day", "core.guide_generate",
          "gen.instance_for_day", "sim.decide", "sim.reconcile")


def day_table(spans_path):
    spans = [json.loads(line) for line in open(spans_path)]
    days = {s["id"]: {"day": int(s["counts"]["day"]),
                      "replay_ms": (s["end_ns"] - s["start_ns"]) / 1e6}
            for s in spans if s["name"] == "replay.day"}
    for s in spans:
        row = days.get(s["parent"])
        if row is None or s["name"] not in LAYERS:
            continue
        row[s["name"] + "_ms"] = (s["end_ns"] - s["start_ns"]) / 1e6
        if s["name"] == "core.guide_generate":
            row["edge_estimate"] = int(s["counts"]["edge_estimate"])
            row["components"] = int(s["counts"]["components"])
    return [days[k] for k in sorted(days)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the result here as JSON")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w["name"] for w in spec["workloads"]] +
                 list(UNGATED_WORKLOADS))
    driver = build()
    report = {}
    for workload in workloads:
        spans = os.path.join(build_dir(), "traces", workload + "-traced.jsonl")
        out = subprocess.run(
            [driver, "--workload", workload, "--seconds",
             str(spec["run_seconds"]), "--trace", "1", "--trace-out", spans],
            capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        report[workload] = {"correct": result["correct"],
                            "attempted": result["attempted"],
                            "failed": result["failed"],
                            "metrics": metrics,
                            "days": day_table(spans)}
        print(workload, json.dumps(metrics), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
