// Streaming-session microbenchmark: the per-arrival decision cost of
// driving an AssignmentSession event by event (the production dispatcher's
// serving path) and the streaming-vs-batch throughput overhead of the
// session API. Batch Run() is the same replay through one session, so the
// two must track each other closely; the per-decision latency percentiles
// come from the sim/runner streaming mode and are the numbers a live
// deployment would put an SLO on.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench_main.h"
#include "core/algorithm_registry.h"
#include "core/guide_generator.h"
#include "gen/synthetic.h"
#include "model/arrival_stream.h"
#include "sim/runner.h"

namespace ftoa {
namespace {

SyntheticConfig ConfigForSize(int64_t objects) {
  SyntheticConfig config;
  config.num_workers = static_cast<int>(objects);
  config.num_tasks = static_cast<int>(objects);
  config.grid_x = 30;
  config.grid_y = 30;
  config.num_slots = 24;
  config.seed = 1234;
  return config;
}

struct Workload {
  std::unique_ptr<Instance> instance;
  AlgorithmDeps deps;
};

/// Aborts with the status message; benches have no caller to report to.
template <typename ResultT>
auto DieUnless(ResultT result) {
  if (!result.ok()) {
    std::fprintf(stderr, "bench_streaming: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

Workload MakeWorkload(int64_t objects) {
  const SyntheticConfig config = ConfigForSize(objects);
  auto instance = DieUnless(GenerateSyntheticInstance(config));
  auto prediction = DieUnless(GenerateSyntheticPrediction(config));
  GuideOptions options;
  options.engine = GuideOptions::Engine::kAuto;
  options.worker_duration = config.worker_duration;
  options.task_duration = config.task_duration;
  auto guide = DieUnless(
      GuideGenerator(config.velocity, options).Generate(prediction));
  Workload workload;
  workload.instance = std::make_unique<Instance>(std::move(instance));
  workload.deps.guide =
      std::make_shared<const OfflineGuide>(std::move(guide));
  return workload;
}

/// Batch replay throughput: Run() drains the whole stream per iteration
/// (including BuildArrivalStream's sort — batch replay pays it per run,
/// while a live stream arrives pre-ordered; BM_StreamRun below therefore
/// pre-builds the events once).
void RunBatch(benchmark::State& state, const std::string& algorithm_name) {
  const Workload workload = MakeWorkload(state.range(0));
  const auto algorithm =
      DieUnless(CreateAlgorithm(algorithm_name, workload.deps));
  int64_t objects = 0;
  for (auto _ : state) {
    Assignment assignment = algorithm->Run(*workload.instance);
    benchmark::DoNotOptimize(assignment.size());
    objects += static_cast<int64_t>(workload.instance->num_workers() +
                                    workload.instance->num_tasks());
  }
  state.SetItemsProcessed(objects);
}

/// Streaming throughput: the same replay, fed event by event by hand (no
/// per-decision stopwatch — this isolates the session-API overhead).
void RunStream(benchmark::State& state, const std::string& algorithm_name) {
  const Workload workload = MakeWorkload(state.range(0));
  const auto algorithm =
      DieUnless(CreateAlgorithm(algorithm_name, workload.deps));
  const std::vector<ArrivalEvent> events =
      BuildArrivalStream(*workload.instance);
  int64_t objects = 0;
  for (auto _ : state) {
    std::unique_ptr<AssignmentSession> session =
        algorithm->StartSession(*workload.instance);
    for (const ArrivalEvent& event : events) {
      if (event.kind == ObjectKind::kWorker) {
        session->OnWorker(event.index, event.time);
      } else {
        session->OnTask(event.index, event.time);
      }
    }
    const SessionResult result = session->Finish();
    benchmark::DoNotOptimize(result.assignment.size());
    objects += static_cast<int64_t>(events.size());
  }
  state.SetItemsProcessed(objects);
}

/// Per-decision latency percentiles via the runner's streaming mode (this
/// is the instrumented path a live dispatcher would report from).
void RunLatency(benchmark::State& state,
                const std::string& algorithm_name) {
  const Workload workload = MakeWorkload(state.range(0));
  const auto algorithm =
      DieUnless(CreateAlgorithm(algorithm_name, workload.deps));
  RunnerOptions options;
  options.streaming = true;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  int64_t objects = 0;
  for (auto _ : state) {
    const RunMetrics metrics = DieUnless(
        RunAlgorithm(algorithm.get(), *workload.instance, options));
    p50 = metrics.decision_latency_p50_ns;
    p99 = metrics.decision_latency_p99_ns;
    max = metrics.decision_latency_max_ns;
    objects += metrics.decisions;
  }
  state.SetItemsProcessed(objects);
  state.counters["p50_ns"] = p50;
  state.counters["p99_ns"] = p99;
  state.counters["max_ns"] = max;
}

void BM_BatchRun(benchmark::State& state, const std::string& name) {
  RunBatch(state, name);
}
void BM_StreamRun(benchmark::State& state, const std::string& name) {
  RunStream(state, name);
}
void BM_DecisionLatency(benchmark::State& state, const std::string& name) {
  RunLatency(state, name);
}

BENCHMARK_CAPTURE(BM_BatchRun, polar_op, "polar-op")
    ->Arg(4000)
    ->Arg(16000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_StreamRun, polar_op, "polar-op")
    ->Arg(4000)
    ->Arg(16000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BatchRun, simple_greedy, "simple-greedy")
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_StreamRun, simple_greedy, "simple-greedy")
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BatchRun, gr, "gr")
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_StreamRun, gr, "gr")
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BatchRun, tgoa, "tgoa")
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_StreamRun, tgoa, "tgoa")
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_CAPTURE(BM_DecisionLatency, polar_op, "polar-op")
    ->Arg(4000)
    ->Arg(16000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DecisionLatency, polar, "polar")
    ->Arg(16000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DecisionLatency, hybrid, "polar-op-g")
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ftoa

int main(int argc, char** argv) {
  return ftoa::bench::RunBenchmarkMain(argc, argv);
}
