// E15 — google-benchmark ablation of offline guide generation (Section 4):
// Ford-Fulkerson (Algorithm 1 verbatim) vs Dinic on the node-level network
// vs our type-compressed network, plus the min-cost variant (note (2)).
// The compressed network is what makes city-scale guides practical; all
// engines produce the same matching cardinality (tested in
// guide_generator_test).

#include <benchmark/benchmark.h>

#include "bench_main.h"
#include "core/guide_generator.h"
#include "gen/synthetic.h"

namespace ftoa {
namespace {

PredictionMatrix MakePrediction(int64_t objects) {
  SyntheticConfig config;
  config.num_workers = static_cast<int>(objects);
  config.num_tasks = static_cast<int>(objects);
  config.grid_x = 30;
  config.grid_y = 30;
  config.num_slots = 24;
  config.seed = 99;
  auto prediction = GenerateSyntheticPrediction(config);
  return std::move(prediction).value();
}

void RunEngine(benchmark::State& state, GuideOptions::Engine engine) {
  const PredictionMatrix prediction = MakePrediction(state.range(0));
  GuideOptions options;
  options.engine = engine;
  options.worker_duration = 3.0;
  options.task_duration = 2.0;
  const GuideGenerator generator(5.0, options);
  int64_t matched = 0;
  for (auto _ : state) {
    auto guide = generator.Generate(prediction);
    if (!guide.ok()) {
      state.SkipWithError(guide.status().ToString().c_str());
      return;
    }
    matched = guide->matched_pairs();
    benchmark::DoNotOptimize(matched);
  }
  state.counters["matched"] = static_cast<double>(matched);
}

void BM_GuideFordFulkerson(benchmark::State& state) {
  RunEngine(state, GuideOptions::Engine::kFordFulkerson);
}
BENCHMARK(BM_GuideFordFulkerson)->Arg(500)->Arg(1000)->Arg(2000);

void BM_GuideDinic(benchmark::State& state) {
  RunEngine(state, GuideOptions::Engine::kDinic);
}
BENCHMARK(BM_GuideDinic)->Arg(500)->Arg(1000)->Arg(2000)->Arg(4000);

void BM_GuideCompressed(benchmark::State& state) {
  RunEngine(state, GuideOptions::Engine::kCompressed);
}
BENCHMARK(BM_GuideCompressed)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_GuideCompressedMinCost(benchmark::State& state) {
  RunEngine(state, GuideOptions::Engine::kCompressedMinCost);
}
BENCHMARK(BM_GuideCompressedMinCost)->Arg(500)->Arg(1000);

}  // namespace
}  // namespace ftoa

int main(int argc, char** argv) {
  return ftoa::bench::RunBenchmarkMain(argc, argv);
}
