#!/usr/bin/env bash
# Perf-trajectory smoke: builds Release, runs the flow microbench, the
# per-object online-algorithm microbench, the parallel/sharding
# microbench, the streaming-session microbench, the sharded-dispatcher
# bench, the candidate-retrieval bench, and the steady-state refresh/
# rotation bench, and records their JSON next to the repo root
# (BENCH_flow.json, BENCH_perobject.json, BENCH_parallel.json,
# BENCH_streaming.json, BENCH_sharded.json, BENCH_retrieval.json,
# BENCH_refresh.json) so future PRs can diff solver performance against
# this one (tools/check_bench_regression.py automates the diff).
#
# Usage: tools/run_bench_smoke.sh [build-dir]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-release}"

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
      -DFTOA_BUILD_TESTS=OFF >/dev/null
cmake --build "$BUILD" \
      --target bench_micro_flow bench_micro_perobject bench_parallel \
               bench_streaming bench_sharded bench_retrieval bench_refresh \
      -j "$(nproc)"

echo "== bench_micro_flow (min-cost flow engines, arenas, matcher)"
"$BUILD/bench_micro_flow" \
    --benchmark_min_time=0.05 \
    --benchmark_out="$ROOT/BENCH_flow.json" \
    --benchmark_out_format=json

echo "== bench_micro_perobject (per-arrival cost of the online algorithms)"
"$BUILD/bench_micro_perobject" \
    --benchmark_min_time=0.05 \
    --benchmark_filter='.*/1000$|.*/4000$' \
    --benchmark_out="$ROOT/BENCH_perobject.json" \
    --benchmark_out_format=json

echo "== bench_parallel (sharded guide solve + parallel MC trials)"
"$BUILD/bench_parallel" \
    --benchmark_min_time=0.05 \
    --benchmark_out="$ROOT/BENCH_parallel.json" \
    --benchmark_out_format=json

echo "== bench_streaming (session vs batch throughput, decision latency)"
"$BUILD/bench_streaming" \
    --benchmark_min_time=0.05 \
    --benchmark_out="$ROOT/BENCH_streaming.json" \
    --benchmark_out_format=json

echo "== bench_sharded (sharded dispatcher vs single session)"
"$BUILD/bench_sharded" \
    --benchmark_min_time=0.05 \
    --benchmark_out="$ROOT/BENCH_sharded.json" \
    --benchmark_out_format=json

echo "== bench_retrieval (engine vs linear candidate scan, approx guides)"
"$BUILD/bench_retrieval" \
    --benchmark_min_time=0.05 \
    --benchmark_out="$ROOT/BENCH_retrieval.json" \
    --benchmark_out_format=json

echo "== bench_refresh (warm guide refresh, incremental rotation, slice)"
"$BUILD/bench_refresh" \
    --benchmark_min_time=0.05 \
    --benchmark_out="$ROOT/BENCH_refresh.json" \
    --benchmark_out_format=json

# The headline snippets below key rows without the /real_time suffix that
# google-benchmark gives UseRealTime() rows (the threaded families), as
# tools/check_bench_regression.py does.

# The FlowEngine crossover table: per shape, each engine's time, the
# winner, and whether kAuto landed on (or near) it — the measurements
# ChooseFlowEngine's thresholds are calibrated from (docs/flow_engines.md).
python3 - "$ROOT/BENCH_flow.json" <<'EOF'
import json, sys
runs = {b["name"].removesuffix("/real_time"): b["real_time"]
        for b in json.load(open(sys.argv[1]))["benchmarks"]}
shapes = [("dense", "512/16"), ("dense", "2048/48"),
          ("ties", "512/16"), ("ties", "2048/48"),
          ("heavy", "128/32"), ("heavy", "256/32")]
engines = ("ssp", "blocking", "cost_scaling")
for shape, size in shapes:
    times = {e: runs.get(f"BM_MinCostFlowEngine/{shape}_{e}/{size}")
             for e in engines}
    auto = runs.get(f"BM_MinCostFlowEngine/{shape}_auto/{size}")
    if None in times.values() or auto is None:
        continue
    winner = min(times, key=times.get)
    cells = ", ".join(f"{e} {times[e]:.1f}ms" for e in engines)
    print(f"engine sweep {shape:5s} {size:7s}: {cells} | winner {winner}, "
          f"auto {auto:.1f}ms ({auto / times[winner]:.2f}x of winner)")
EOF

# Headline numbers: serial vs parallel guide generation and trial
# throughput (ratios near 1.0 are expected on single-core machines).
python3 - "$ROOT/BENCH_parallel.json" <<'EOF'
import json, sys
runs = {b["name"].removesuffix("/real_time"): b["real_time"]
        for b in json.load(open(sys.argv[1]))["benchmarks"]}
for base, label in [("BM_GuideCompressed", "guide (sharded)"),
                    ("BM_GuideCompressedMinCost", "guide min-cost"),
                    ("BM_CompetitiveTrials", "MC trials")]:
    serial = runs.get(f"{base}/1")
    parallel = runs.get(f"{base}/4")
    if serial and parallel:
        print(f"{label}: serial {serial:.1f}ms, 4 threads "
              f"{parallel:.1f}ms, speedup {serial / parallel:.2f}x")
EOF

# Headline numbers: streaming-session overhead vs batch replay, and the
# POLAR-OP per-decision latency percentiles a live dispatcher would report.
python3 - "$ROOT/BENCH_streaming.json" <<'EOF'
import json, sys
benches = json.load(open(sys.argv[1]))["benchmarks"]
runs = {b["name"].removesuffix("/real_time"): b for b in benches}
batch = runs.get("BM_BatchRun/polar_op/16000")
stream = runs.get("BM_StreamRun/polar_op/16000")
if batch and stream:
    print(f"polar-op 16k+16k: batch {batch['real_time']:.2f}ms, "
          f"stream {stream['real_time']:.2f}ms "
          f"(overhead {stream['real_time'] / batch['real_time'] - 1:+.1%})")
lat = runs.get("BM_DecisionLatency/polar_op/16000")
if lat:
    print(f"polar-op decision latency: p50 {lat.get('p50_ns', 0):.0f}ns, "
          f"p99 {lat.get('p99_ns', 0):.0f}ns, "
          f"max {lat.get('max_ns', 0):.0f}ns")
EOF

# Headline numbers: sharded-dispatcher throughput (per-event vs batched
# queue handoff) and the utility cost of partitioning per router (matched
# + reconciled counters) vs the single-session baseline.
python3 - "$ROOT/BENCH_sharded.json" <<'EOF'
import json, sys
benches = json.load(open(sys.argv[1]))["benchmarks"]
runs = {b["name"].removesuffix("/real_time"): b for b in benches}
single = runs.get("BM_SingleSession/polar_op_16k")
for shards in (1, 4, 8):
    sharded = runs.get(f"BM_ShardedGrid/polar_op_16k/{shards}")
    if single and sharded:
        print(f"polar-op 16k+16k, {shards} grid shard(s), batched handoff: "
              f"{sharded['real_time']:.2f}ms vs single "
              f"{single['real_time']:.2f}ms "
              f"(speedup {single['real_time'] / sharded['real_time']:.2f}x), "
              f"matched {sharded['matched']:.0f} vs "
              f"{single['matched']:.0f}, "
              f"p99 {sharded.get('p99_ns', 0):.0f}ns (1-in-8 sampled) vs "
              f"{single.get('p99_ns', 0):.0f}ns (exact)")
per_event = runs.get("BM_ShardedGridPerEvent/polar_op_16k/4")
threaded = runs.get("BM_ShardedGridThreaded/polar_op_16k/4")
if per_event and threaded:
    print(f"handoff mode, 4 grid shards x 4 threads: per-event "
          f"{per_event['real_time']:.2f}ms, batched "
          f"{threaded['real_time']:.2f}ms "
          f"(batching {per_event['real_time'] / threaded['real_time']:.2f}x)")
for router in ("Grid", "Hash", "Load"):
    plain = runs.get(f"BM_Sharded{router}/polar_op_16k/4")
    rec = runs.get(f"BM_Sharded{router}Reconciled/polar_op_16k/4")
    if plain and rec:
        print(f"router {router.lower():4s}, 4 shards: matched "
              f"{plain['matched']:.0f} -> {rec['matched']:.0f} reconciled "
              f"(+{rec['reconciled']:.0f} recovered, pass "
              f"{rec['real_time'] - plain['real_time']:.0f}ms)")
EOF

# Headline numbers: per-decision cost growth of the retrieval engine vs
# the linear candidate scan across the density sweep (the sublinearity
# claim), and the approx-guide time saving against its certified
# matched-utility loss bound.
python3 - "$ROOT/BENCH_retrieval.json" <<'EOF'
import json, sys
benches = json.load(open(sys.argv[1]))["benchmarks"]
runs = {b["name"].removesuffix("/real_time"): b for b in benches}
sizes = (2000, 8000, 32000)
for mode in ("Engine", "Linear"):
    points = [runs.get(f"BM_Retrieval{mode}/simple_greedy/{n}")
              for n in sizes]
    if not all(points):
        continue
    # items_per_second counts decisions; invert for per-decision cost.
    us = [1e6 / p["items_per_second"] for p in points]
    growth = us[-1] / us[0]
    cells = (f", cells p50 {points[-1]['cells_p50']:.0f} "
             f"p99 {points[-1]['cells_p99']:.0f}"
             if "cells_p50" in points[-1] else "")
    print(f"retrieval {mode.lower():6s} simple-greedy: per-decision "
          f"{us[0]:.1f}us -> {us[-1]:.1f}us over {sizes[0]}->{sizes[-1]} "
          f"objects ({growth:.1f}x for {sizes[-1] // sizes[0]}x load)"
          f"{cells}")
exact = runs.get("BM_ApproxGuide/rate_100")
for pct in (50, 25):
    approx = runs.get(f"BM_ApproxGuide/rate_{pct}")
    if exact and approx:
        print(f"approx guide rate {pct / 100:.2f}: "
              f"{approx['real_time']:.1f}ms vs exact "
              f"{exact['real_time']:.1f}ms "
              f"({exact['real_time'] / approx['real_time']:.1f}x faster), "
              f"matched {approx['matched']:.0f} vs {exact['matched']:.0f} "
              f"(gap {approx['utility_gap']:.0f} <= certified bound "
              f"{approx['loss_bound']:.0f})")
EOF

# Headline numbers: the serving steady state — warm-refresh speedup on the
# sparse-delta sequence (the >= 2x acceptance bar), per-window rotation
# cost as the stream grows (must stay flat), and shard p99 under
# background refresh for the dedicated vs shared-slice pool layouts.
python3 - "$ROOT/BENCH_refresh.json" <<'EOF'
import json, sys
benches = json.load(open(sys.argv[1]))["benchmarks"]
runs = {b["name"].removesuffix("/real_time"): b for b in benches}
for clusters in (16, 64):
    cold = runs.get(f"BM_GuideRefresh/cold/{clusters}")
    warm = runs.get(f"BM_GuideRefresh/warm/{clusters}")
    if cold and warm:
        print(f"warm refresh, {clusters} components, 1-2 dirty per step: "
              f"cold {cold['real_time']:.2f}ms, warm "
              f"{warm['real_time']:.2f}ms "
              f"(speedup {cold['real_time'] / warm['real_time']:.2f}x, "
              f"{warm['reused']:.0f}/{warm['components']:.0f} components "
              f"reused)")
points = [runs.get(f"BM_Rotation/incremental/{w}") for w in (96, 864)]
if all(points):
    wps = [p["items_per_second"] for p in points]
    print(f"rotation: {wps[0]:.0f} -> {wps[1]:.0f} windows/s from 96 to 864 "
          f"windows, live set {points[0]['store']:.0f} -> "
          f"{points[-1]['store']:.0f} entries "
          f"({wps[0] / wps[1]:.2f}x slowdown)")
for layout in ("dedicated", "shared_slice"):
    run = runs.get(f"BM_Interference/{layout}/24")
    if run:
        print(f"interference {layout:12s}: {run['real_time']:.0f}ms for 24 "
              f"windows, shard p99 {run['shard_p99_ms']:.3f}ms, "
              f"{run['publishes']:.0f} background publishes "
              f"({run['refresh_ms']:.0f}ms solve)")
EOF
