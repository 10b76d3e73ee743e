#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds the benchmark driver (servebench/CMakeLists.txt, Release) from the
sources of the checkout it runs in, then runs one workload:

    python3 servebench/run.py --workload beijing-1shard --seed 7 \
        --seconds 55 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR, or to
.bench_build when that is unset; build output goes to stderr. The last line
of stdout is the driver's JSON result. --trace 1 also writes the run's spans
to <build dir>/traces/<workload>-seed<seed>.jsonl. See servebench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Workloads the driver plays that BENCHMARK.json does not list, so no bound
# holds them. The self-test and the traced run still play them; README.md
# says why each is left out.
UNGATED_WORKLOADS = ("hangzhou-sparse",)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the driver; returns its path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit("servebench: no %s at %s; run from a full checkout"
                     % (needed, ROOT))
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "servebench_driver",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "servebench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    driver = build()
    cmd = [driver, "--workload", args.workload, "--seconds",
           str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace:
        seed = "default" if args.seed is None else str(args.seed)
        cmd += ["--trace-out", os.path.join(
            build_dir(), "traces", "%s-seed%s.jsonl" % (args.workload, seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
