// Microbenchmark for the sharded/parallel execution layer (thread pool +
// connected-component guide decomposition + parallel Monte-Carlo trials):
//
//  * BM_GuideCompressed / BM_GuideCompressedMinCost — guide generation on
//    a prediction whose feasibility disks stay within one cell, so the
//    compressed type-pair network decomposes into many connected
//    components; swept over GuideOptions::num_threads. num_threads = 1 is
//    the serial baseline, and every thread count produces the identical
//    guide (asserted in tests/core/guide_generator_test.cc), so this
//    measures pure scheduling overhead vs parallel speedup.
//  * BM_GuideOneComponent — the adversarial shape: a dense prediction that
//    union-finds into one giant component, where sharding cannot help and
//    the parallel path must cost no more than a pool dispatch.
//  * BM_CompetitiveTrials — EstimateCompetitiveRatio throughput over
//    num_threads; trials fork independent RNG streams, so this scales with
//    cores regardless of the guide's component structure.
//
// Every family sweeps a thread count, so all run UseRealTime():
// items_per_second is wall-clock throughput, not work per main-thread CPU
// second.
//
// tools/run_bench_smoke.sh runs this binary and records
// BENCH_parallel.json for the perf trajectory across PRs.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_main.h"
#include "core/guide_generator.h"
#include "core/polar_op.h"
#include "gen/synthetic.h"
#include "sim/competitive.h"
#include "util/thread_pool.h"

namespace ftoa {
namespace {

// Many-component regime: tiny durations and a slow velocity keep each
// feasibility disk inside its own cell, so type pairs only form within a
// cell and the network shatters into per-cell components.
SyntheticConfig ShardableConfig() {
  SyntheticConfig config;
  config.num_workers = 20000;
  config.num_tasks = 20000;
  config.grid_x = 24;
  config.grid_y = 24;
  config.num_slots = 24;
  config.velocity = 0.2;
  config.task_duration = 0.5;
  config.worker_duration = 1.0;
  config.seed = 9001;
  return config;
}

// One-component regime: the paper's default physics (fast workers, long
// windows) connects the whole grid transitively.
SyntheticConfig DenseConfig() {
  SyntheticConfig config;
  config.num_workers = 20000;
  config.num_tasks = 20000;
  config.grid_x = 20;
  config.grid_y = 20;
  config.num_slots = 24;
  config.seed = 9002;
  return config;
}

void RunGuideBench(benchmark::State& state, const SyntheticConfig& config,
                   GuideOptions::Engine engine) {
  const PredictionMatrix prediction =
      GenerateSyntheticExpectedPrediction(config).value();
  GuideOptions options;
  options.engine = engine;
  options.worker_duration = config.worker_duration;
  options.task_duration = config.task_duration;
  options.num_threads = static_cast<int>(state.range(0));
  const GuideGenerator generator(config.velocity, options);
  int64_t matched = 0;
  for (auto _ : state) {
    const auto guide = generator.Generate(prediction);
    matched = guide.ok() ? guide->matched_pairs() : -1;
    benchmark::DoNotOptimize(matched);
  }
  state.counters["components"] =
      static_cast<double>(generator.last_num_components());
  state.counters["matched"] = static_cast<double>(matched);
}

void BM_GuideCompressed(benchmark::State& state) {
  RunGuideBench(state, ShardableConfig(), GuideOptions::Engine::kCompressed);
}
BENCHMARK(BM_GuideCompressed)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_GuideCompressedMinCost(benchmark::State& state) {
  RunGuideBench(state, ShardableConfig(),
                GuideOptions::Engine::kCompressedMinCost);
}
BENCHMARK(BM_GuideCompressedMinCost)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_GuideOneComponent(benchmark::State& state) {
  RunGuideBench(state, DenseConfig(), GuideOptions::Engine::kCompressed);
}
BENCHMARK(BM_GuideOneComponent)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_CompetitiveTrials(benchmark::State& state) {
  SyntheticConfig config;
  config.num_workers = 400;
  config.num_tasks = 400;
  config.grid_x = 10;
  config.grid_y = 10;
  config.num_slots = 8;
  config.seed = 9003;
  const PredictionMatrix prediction =
      GenerateSyntheticExpectedPrediction(config).value();
  const IidInstanceSampler sampler(prediction, config.velocity,
                                   config.worker_duration,
                                   config.task_duration);
  GuideOptions options;
  options.engine = GuideOptions::Engine::kAuto;
  options.worker_duration = config.worker_duration;
  options.task_duration = config.task_duration;
  auto guide = std::make_shared<const OfflineGuide>(
      std::move(GuideGenerator(config.velocity, options).Generate(prediction))
          .value());
  const auto factory = [guide]() { return std::make_unique<PolarOp>(guide); };
  const int threads = static_cast<int>(state.range(0));
  const int trials = 8;
  // One pool across iterations: measure steady-state trial throughput,
  // not per-call thread spawn/join.
  ThreadPool pool(threads);
  for (auto _ : state) {
    const auto estimate = EstimateCompetitiveRatio(sampler, factory, trials,
                                                   7, threads, &pool);
    benchmark::DoNotOptimize(estimate.ok() ? estimate->mean_ratio : -1.0);
  }
  state.SetItemsProcessed(state.iterations() * trials);
}
BENCHMARK(BM_CompetitiveTrials)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ftoa

int main(int argc, char** argv) {
  return ftoa::bench::RunBenchmarkMain(argc, argv);
}
