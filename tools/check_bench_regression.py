#!/usr/bin/env python3
"""Bench regression gate: diff a fresh google-benchmark JSON against a
committed baseline and fail on steady-state or quality regressions.

Four checks:

  1. Per-benchmark regression (benchmarks in both files): fresh real_time
     > --max-regression x the baseline's (default 2.0 -- lenient on
     purpose: baselines are recorded on whatever machine cut the PR, and
     the gate must not flake on hardware differences; a genuine
     O(store)-per-window regression on the serving path blows past 2x on
     any machine).
  2. Warm-refresh invariant (BENCH_refresh.json only): in the *fresh* run,
     BM_GuideRefresh/warm/C must beat BM_GuideRefresh/cold/C by at least
     --min-warm-speedup (default 2.0) -- the PR's acceptance bar, measured
     on one machine so it cannot flake on hardware.
  3. Quality (benchmarks in both files): a `matched` or `reconciled`
     counter must not drop from baseline to fresh. The benches are
     deterministic, so any drop is a change in what the code computes,
     not noise -- except for the rows in TIMING_DEPENDENT, whose guide
     publishes land at a wall-clock-dependent window.
  4. Certified approximation (fresh run): every BM_ApproxGuide/* row must
     report utility_gap <= loss_bound.

Usage:
  tools/check_bench_regression.py BASELINE.json FRESH.json \
      [--max-regression=2.0] [--min-warm-speedup=2.0]

Exits 0 when every check passes, 1 otherwise. Benchmarks present in only
one file are reported but never fail the gate (series come and go).
"""

import argparse
import json
import sys

# Counters that count what a run achieved; fewer is a quality regression.
QUALITY_COUNTERS = ("matched", "reconciled")

# Name prefixes of rows whose quality counters legitimately vary run to
# run: BM_Interference refreshes on a background thread, and a guide
# publish lands at whichever window boundary first polls it complete.
TIMING_DEPENDENT = ("BM_Interference/",)


def load_benchmarks(path):
    """name -> entry (real_time plus counters) for every non-aggregate
    benchmark entry."""
    with open(path) as handle:
        data = json.load(handle)
    runs = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        runs[bench["name"]] = bench
    return runs


def check_regressions(baseline, fresh, max_regression):
    failures = []
    shared = sorted(set(baseline) & set(fresh))
    if not shared:
        print("bench-regression: no shared benchmarks; nothing to compare")
        return failures
    for name in shared:
        base_time = float(baseline[name]["real_time"])
        fresh_time = float(fresh[name]["real_time"])
        ratio = fresh_time / base_time if base_time > 0 else 1.0
        marker = "FAIL" if ratio > max_regression else "ok"
        print(f"  {marker:4s} {name}: baseline {base_time:.2f} "
              f"fresh {fresh_time:.2f} ({ratio:.2f}x)")
        if ratio > max_regression:
            failures.append(f"{name} regressed {ratio:.2f}x "
                            f"(limit {max_regression:.2f}x)")
    for name in sorted(set(baseline) - set(fresh)):
        print(f"  note {name}: in baseline only (series removed?)")
    for name in sorted(set(fresh) - set(baseline)):
        print(f"  note {name}: new series (no baseline)")
    return failures


def check_warm_speedup(fresh, min_speedup):
    """The sparse-delta refresh bar, on the fresh run alone."""
    failures = []
    pairs = []
    for name, cold in fresh.items():
        if "/cold/" not in name:
            continue
        warm_name = name.replace("/cold/", "/warm/")
        if warm_name in fresh:
            pairs.append((name, warm_name, float(cold["real_time"]),
                          float(fresh[warm_name]["real_time"])))
    for cold_name, warm_name, cold_time, warm_time in sorted(pairs):
        speedup = cold_time / warm_time if warm_time > 0 else float("inf")
        marker = "ok" if speedup >= min_speedup else "FAIL"
        print(f"  {marker:4s} {warm_name}: {speedup:.2f}x vs {cold_name} "
              f"(bar {min_speedup:.2f}x)")
        if speedup < min_speedup:
            failures.append(f"{warm_name} only {speedup:.2f}x faster than "
                            f"{cold_name} (bar {min_speedup:.2f}x)")
    return failures


def check_quality_counters(baseline, fresh):
    """matched / reconciled must not drop on a deterministic bench."""
    failures = []
    for name in sorted(set(baseline) & set(fresh)):
        if name.startswith(TIMING_DEPENDENT):
            continue
        for counter in QUALITY_COUNTERS:
            if counter not in baseline[name] or counter not in fresh[name]:
                continue
            base = float(baseline[name][counter])
            now = float(fresh[name][counter])
            marker = "FAIL" if now < base else "ok"
            print(f"  {marker:4s} {name} {counter}: baseline {base:.0f} "
                  f"fresh {now:.0f}")
            if now < base:
                failures.append(f"{name} {counter} dropped {base:.0f} -> "
                                f"{now:.0f}")
    return failures


def check_approx_loss_bound(fresh):
    """Each approximate guide's utility gap stays within its certified
    loss bound."""
    failures = []
    for name in sorted(fresh):
        if not name.startswith("BM_ApproxGuide/"):
            continue
        row = fresh[name]
        if "utility_gap" not in row or "loss_bound" not in row:
            print(f"  FAIL {name}: utility_gap/loss_bound not reported")
            failures.append(f"{name} reports no utility_gap/loss_bound")
            continue
        gap = float(row["utility_gap"])
        bound = float(row["loss_bound"])
        marker = "ok" if gap <= bound else "FAIL"
        print(f"  {marker:4s} {name}: utility_gap {gap:.0f} "
              f"<= loss_bound {bound:.0f}")
        if gap > bound:
            failures.append(f"{name} utility_gap {gap:.0f} exceeds "
                            f"loss_bound {bound:.0f}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--max-regression", type=float, default=2.0)
    parser.add_argument("--min-warm-speedup", type=float, default=2.0)
    args = parser.parse_args()

    baseline = load_benchmarks(args.baseline)
    fresh = load_benchmarks(args.fresh)

    print(f"bench-regression: {args.fresh} vs baseline {args.baseline}")
    failures = check_regressions(baseline, fresh, args.max_regression)
    print("bench-regression: warm-refresh speedup bar")
    failures += check_warm_speedup(fresh, args.min_warm_speedup)
    print("bench-regression: quality counters (matched, reconciled)")
    failures += check_quality_counters(baseline, fresh)
    print("bench-regression: approximate-guide loss bound")
    failures += check_approx_loss_bound(fresh)

    if failures:
        print("bench-regression: FAILED")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("bench-regression: passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
