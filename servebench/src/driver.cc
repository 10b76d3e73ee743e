// Serving benchmark driver: one workload run of ServiceHarness.
//
//   servebench_driver --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                     [--timed-windows W] [--trace-out FILE]
//
// A run is a closed loop on one thread. Each pass creates a harness, plays
// one untimed warm-up day (set-up), then hands over W windows one
// RunWindows(1) call at a time, timing each call; the next window goes in
// only after the previous call returned. Every call rotates the open
// segment, so a window's arrivals are all decided when its call returns.
// Untraced runs (--trace 0) repeat passes while the next one fits in
// --seconds, pool every timed window, and report the end-to-end metrics.
// Traced runs (--trace 1) play an untraced pass, a traced pass and another
// untraced pass. The traced pass records a serve.window span per call and,
// before each timed day, replays that day through the lower layers
// (layer_replay.h). They report the per-layer metrics, with the tracing
// overhead measured against both untraced passes, and write the spans to
// --trace-out. Every pass runs the
// output check (output_check.h); a pass that fails it counts all its
// windows as failed. The last stdout line is the result as one JSON object.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "core/algorithm_registry.h"
#include "layer_replay.h"
#include "output_check.h"
#include "serve/service_harness.h"
#include "util/stopwatch.h"
#include "workloads.h"

namespace servebench {
namespace {

/// Set-ups made before the first pass, so setup_s always has at least this
/// many samples plus one per pass.
constexpr int kExtraSetups = 2;

/// Hard cap on the measured part of a run, whatever --seconds says.
constexpr double kMaxMeasureSeconds = 120.0;

struct Args {
  std::string workload;
  bool has_seed = false;
  uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  int64_t timed_windows = kTimedWindows;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for %s\n", key.c_str());
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->has_seed = true;
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (key == "--timed-windows") {
      args->timed_windows = std::strtoll(value.c_str(), &end, 10);
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "malformed value for %s: %s\n", key.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (args->workload.empty() || args->seconds <= 0.0 ||
      args->timed_windows < 1 || (args->trace != 0 && args->trace != 1)) {
    std::fprintf(stderr, "need --workload, --seconds > 0, "
                         "--timed-windows >= 1 and --trace 0|1\n");
    return false;
  }
  return true;
}

/// Nearest-rank percentile (pct in [0, 100]) of a copy of `values`.
double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  const size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One workload run's fixed context.
struct Run {
  const Workload* workload = nullptr;
  Inputs inputs;
  ftoa::FeasibilityPolicy policy =
      ftoa::FeasibilityPolicy::kDispatchAtWorkerStart;
  Reference expected;  ///< Defaults (-1) skip the reference checks.
  int64_t timed_windows = 0;
  std::vector<double> setup_seconds;
  /// Peak RSS once set-up and the first pass (with its check) are done;
  /// later passes reuse freed memory unevenly, so they are left out.
  double peak_rss_mb = 0.0;
};

/// One pass's timed windows and outcome.
struct Pass {
  std::vector<double> window_ms;
  std::vector<ftoa::WindowMetrics> windows;
  ftoa::ServiceTotals totals;
  uint64_t pairs_hash = 0;  ///< Fingerprint of matched_pairs().
  CheckResult check;
  std::vector<DayLayers> days;  ///< Traced pass only.
};

/// Create plus the untimed warm-up day, timed into run->setup_seconds.
ftoa::Result<std::unique_ptr<ftoa::ServiceHarness>> SetUp(Run* run) {
  ftoa::Stopwatch stopwatch;
  FTOA_ASSIGN_OR_RETURN(
      std::unique_ptr<ftoa::ServiceHarness> harness,
      ftoa::ServiceHarness::Create(run->inputs.profile, run->inputs.trace,
                                   OptionsFor(*run->workload)));
  for (int64_t w = 0; w < run->inputs.profile.slots_per_day; ++w) {
    FTOA_RETURN_NOT_OK(harness->RunWindows(1));
  }
  run->setup_seconds.push_back(stopwatch.ElapsedSeconds());
  return harness;
}

/// Sets up a harness and plays the timed windows. With `spans` set, every
/// call gets a serve.window span and each timed day is first replayed
/// through the lower layers. Only a `full_check` pass runs the output
/// check; the caller compares the other passes' pairs to its fingerprint.
Pass RunPass(Run* run, SpanRecorder* spans, bool full_check) {
  Pass pass;
  auto harness = SetUp(run);
  if (!harness.ok()) {
    pass.check = CheckResult{false, harness.status().ToString()};
    return pass;
  }
  const int64_t spd = run->inputs.profile.slots_per_day;
  std::unique_ptr<LayerReplay> replay;
  int64_t pass_span = 0;
  if (spans != nullptr) {
    replay = std::make_unique<LayerReplay>(*run->workload, run->inputs);
    pass_span = spans->Open("serve.pass", 0);
  }
  int64_t day_span = pass_span;
  for (int64_t i = 0; i < run->timed_windows; ++i) {
    const int64_t window = spd + i;
    if (spans != nullptr && window % spd == 0) {
      if (day_span != pass_span) spans->Close(day_span);
      day_span = spans->Open("day", pass_span);
      auto day = replay->ReplayDay(window / spd, spans, day_span);
      if (!day.ok()) {
        pass.check = CheckResult{false, day.status().ToString()};
        return pass;
      }
      pass.days.push_back(*day);
    }
    ftoa::Status status;
    double ms = 0.0;
    if (spans != nullptr) {
      const int64_t span = spans->Open("serve.window", day_span);
      status = (*harness)->RunWindows(1);
      spans->Close(span);
      ms = spans->Millis(span);
      const ftoa::WindowMetrics& m = (*harness)->windows().back();
      const std::pair<const char*, double> counts[] = {
          {"window", static_cast<double>(m.window)},
          {"day", static_cast<double>(m.day)},
          {"offered", static_cast<double>(m.offered)},
          {"admitted", static_cast<double>(m.admitted)},
          {"shed", static_cast<double>(m.shed)},
          {"matched", static_cast<double>(m.matched)},
          {"decisions", static_cast<double>(m.decisions)},
          {"decision_p50_ms", m.p50_ms},
          {"decision_p99_ms", m.p99_ms},
          {"retrieval_queries", static_cast<double>(m.retrieval_queries)},
          {"candidates_examined", static_cast<double>(m.candidates_examined)},
          {"cells_visited_p50", static_cast<double>(m.cells_visited_p50)},
          {"cells_visited_p99", static_cast<double>(m.cells_visited_p99)},
          {"live_objects", static_cast<double>(m.live_objects)},
          {"evicted", static_cast<double>(m.evicted)},
          {"live_bytes", static_cast<double>(m.live_bytes)},
          {"guide_epoch", static_cast<double>(m.guide_epoch)},
          {"guide_age_windows", static_cast<double>(m.guide_age_windows)},
          {"refresh_ms", m.refresh_ms},
          {"refresh_components_total",
           static_cast<double>(m.refresh_components_total)},
          {"refresh_components_reused",
           static_cast<double>(m.refresh_components_reused)},
          {"degraded_greedy", m.degraded_greedy ? 1.0 : 0.0},
      };
      for (const auto& [key, value] : counts) spans->Count(span, key, value);
    } else {
      ftoa::Stopwatch stopwatch;
      status = (*harness)->RunWindows(1);
      ms = static_cast<double>(stopwatch.ElapsedNanos()) / 1e6;
    }
    if (!status.ok()) {
      pass.check = CheckResult{false, status.ToString()};
      return pass;
    }
    pass.window_ms.push_back(ms);
    pass.windows.push_back((*harness)->windows().back());
  }
  if (spans != nullptr) {
    spans->Close(day_span);
    spans->Close(pass_span);
  }
  pass.totals = (*harness)->totals();
  const std::vector<std::pair<int64_t, int64_t>> pairs =
      (*harness)->matched_pairs();
  harness->reset();  // The check's memory never stacks on the harness's.
  pass.pairs_hash = 1469598103934665603ULL;  // FNV-1a.
  for (const auto& [worker, task] : pairs) {
    for (const int64_t id : {worker, task}) {
      pass.pairs_hash =
          (pass.pairs_hash ^ static_cast<uint64_t>(id)) * 1099511628211ULL;
    }
  }
  if (full_check) {
    const ftoa::LoopedTraceSource source(run->inputs.profile,
                                         run->inputs.trace);
    pass.check = CheckServeOutput(source, pairs, pass.totals, run->policy,
                                  run->expected);
  }
  return pass;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Σ offered ÷ Σ call seconds over the given passes.
double ArrivalsPerSecond(const std::vector<Pass>& passes) {
  double offered = 0.0;
  double ms = 0.0;
  for (const Pass& pass : passes) {
    for (size_t i = 0; i < pass.windows.size(); ++i) {
      offered += static_cast<double>(pass.windows[i].offered);
      ms += pass.window_ms[i];
    }
  }
  return Ratio(offered, ms / 1e3);
}

std::vector<Metric> EndToEndMetrics(const Run& run,
                                    const std::vector<Pass>& passes) {
  std::vector<double> window_ms;
  double offered = 0.0;
  double admitted = 0.0;
  for (const Pass& pass : passes) {
    window_ms.insert(window_ms.end(), pass.window_ms.begin(),
                     pass.window_ms.end());
    for (const ftoa::WindowMetrics& w : pass.windows) {
      offered += static_cast<double>(w.offered);
      admitted += static_cast<double>(w.admitted);
    }
  }
  return {
      {"arrivals_per_s", ArrivalsPerSecond(passes), "1/s"},
      {"window_ms_p50", Percentile(window_ms, 50.0), "ms"},
      {"window_ms_p95", Percentile(window_ms, 95.0), "ms"},
      {"matched_pairs", static_cast<double>(passes.front().totals.matched),
       "count"},
      {"admitted_frac", Ratio(admitted, offered), "ratio"},
      {"setup_s", Percentile(run.setup_seconds, 50.0), "s"},
      {"peak_rss_mb", run.peak_rss_mb, "MB"},
  };
}

/// `passes` is {untraced, traced, untraced}.
std::vector<Metric> PerLayerMetrics(const std::vector<Pass>& passes,
                                    size_t num_spans) {
  const Pass& traced = passes[1];
  // serve: the traced pass's own calls and WindowMetrics.
  double window_ms_sum = 0.0;
  double refresh_ms_sum = 0.0;
  double evicted = 0.0;
  double queries = 0.0;
  double examined = 0.0;
  std::vector<double> no_refresh_ms;
  std::vector<double> live;
  std::vector<double> cells_p99;
  for (size_t i = 0; i < traced.windows.size(); ++i) {
    const ftoa::WindowMetrics& w = traced.windows[i];
    window_ms_sum += traced.window_ms[i];
    refresh_ms_sum += w.refresh_ms;
    if (w.refresh_ms == 0.0) no_refresh_ms.push_back(traced.window_ms[i]);
    live.push_back(static_cast<double>(w.live_objects));
    evicted += static_cast<double>(w.evicted);
    queries += static_cast<double>(w.retrieval_queries);
    examined += static_cast<double>(w.candidates_examined);
    if (w.retrieval_queries > 0) {
      cells_p99.push_back(static_cast<double>(w.cells_visited_p99));
    }
  }

  // gen, core, sim: the per-day replay.
  const double days = static_cast<double>(traced.days.size());
  double day_ms = 0.0, ingest_ms = 0.0, arrivals = 0.0, solve_ms_sum = 0.0;
  double decide_ms = 0.0, decisions = 0.0, matched = 0.0, skew = 0.0;
  double reconcile_ms = 0.0, boundary_workers = 0.0, boundary_tasks = 0.0;
  double recovered = 0.0, rec_queries = 0.0, rec_examined = 0.0;
  std::vector<double> solve_ms, edges, components;
  for (const DayLayers& d : traced.days) {
    day_ms += d.day_ms;
    ingest_ms += d.ingest_ms;
    arrivals += static_cast<double>(d.arrivals);
    solve_ms.push_back(d.solve_ms);
    solve_ms_sum += d.solve_ms;
    edges.push_back(static_cast<double>(d.edge_estimate));
    components.push_back(static_cast<double>(d.components));
    decide_ms += d.decide_ms;
    decisions += static_cast<double>(d.decisions);
    matched += static_cast<double>(d.matched);
    skew += d.shard_busy_max_over_mean;
    reconcile_ms += d.reconcile_ms;
    boundary_workers += static_cast<double>(d.reconcile.boundary_workers);
    boundary_tasks += static_cast<double>(d.reconcile.boundary_tasks);
    recovered += static_cast<double>(d.reconcile.recovered_pairs);
    rec_queries += static_cast<double>(d.reconcile.retrieval.queries);
    rec_examined +=
        static_cast<double>(d.reconcile.retrieval.candidates_examined);
  }

  const double untraced_aps = ArrivalsPerSecond({passes[0], passes[2]});
  const double traced_aps = ArrivalsPerSecond({traced});
  return {
      {"serve.refresh_ms_sum", refresh_ms_sum, "ms"},
      {"serve.refresh_share", Ratio(refresh_ms_sum, window_ms_sum), "ratio"},
      {"serve.window_ms_p50_no_refresh", Percentile(no_refresh_ms, 50.0),
       "ms"},
      {"serve.live_objects_p50", Percentile(live, 50.0), "count"},
      {"serve.store_peak", static_cast<double>(traced.totals.store_peak),
       "count"},
      {"serve.evicted", evicted, "count"},
      {"serve.infeasible_pairs",
       static_cast<double>(passes[0].check.infeasible_pairs), "count"},
      {"retrieval.queries", queries, "count"},
      {"retrieval.candidates_per_query", Ratio(examined, queries), "ratio"},
      {"retrieval.cells_visited_p99", Percentile(cells_p99, 50.0), "count"},
      {"gen.ingest_ms_per_day", Ratio(ingest_ms, days), "ms"},
      {"gen.arrivals_per_day", Ratio(arrivals, days), "count"},
      {"core.guide_solve_ms_p50", Percentile(solve_ms, 50.0), "ms"},
      {"core.guide_edge_estimate", Percentile(edges, 50.0), "count"},
      {"core.guide_edge_estimate_min", Percentile(edges, 0.0), "count"},
      {"core.guide_edge_estimate_max", Percentile(edges, 100.0), "count"},
      {"core.guide_components", Percentile(components, 50.0), "count"},
      {"core.guide_share", Ratio(solve_ms_sum, day_ms), "ratio"},
      {"sim.decide_ns_per_arrival", Ratio(decide_ms * 1e6, decisions), "ns"},
      {"sim.matched_per_day", Ratio(matched, days), "count"},
      {"sim.shard_busy_max_over_mean", Ratio(skew, days), "ratio"},
      {"sim.decide_share", Ratio(decide_ms, day_ms), "ratio"},
      {"sim.reconcile_ms_per_day", Ratio(reconcile_ms, days), "ms"},
      {"sim.reconcile_share", Ratio(reconcile_ms, day_ms), "ratio"},
      {"sim.reconcile_boundary_workers", Ratio(boundary_workers, days),
       "count"},
      {"sim.reconcile_boundary_tasks", Ratio(boundary_tasks, days), "count"},
      {"sim.reconcile_recovered_pairs", Ratio(recovered, days), "count"},
      {"sim.reconcile_recovered_per_boundary_worker",
       Ratio(recovered, boundary_workers), "ratio"},
      {"sim.reconcile_candidates_per_query", Ratio(rec_examined, rec_queries),
       "ratio"},
      {"trace.arrivals_per_s_untraced", untraced_aps, "1/s"},
      {"trace.arrivals_per_s_traced", traced_aps, "1/s"},
      {"trace.overhead_frac", 1.0 - Ratio(traced_aps, untraced_aps), "ratio"},
      {"trace.spans", static_cast<double>(num_spans), "count"},
  };
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  Run run;
  run.workload = FindWorkload(args.workload);
  if (run.workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const uint64_t default_seed = DefaultSeed(*run.workload);
  const uint64_t seed = args.has_seed ? args.seed : default_seed;
  run.inputs = InputsFor(*run.workload, seed);
  run.timed_windows = args.timed_windows;
  if (seed == default_seed) {
    if (args.timed_windows == kTimedWindows) run.expected = run.workload->full;
    if (args.timed_windows == kSmokeWindows) run.expected = run.workload->smoke;
  }
  {
    ftoa::AlgorithmDeps deps;
    deps.guide = std::make_shared<const ftoa::OfflineGuide>();
    auto algorithm = ftoa::CreateAlgorithm(OptionsFor(*run.workload).algorithm,
                                           deps);
    if (!algorithm.ok()) {
      std::fprintf(stderr, "%s\n", algorithm.status().ToString().c_str());
      return 1;
    }
    run.policy = (*algorithm)->feasibility_policy();
  }

  for (int i = 0; i < kExtraSetups; ++i) {
    auto harness = SetUp(&run);
    if (!harness.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   harness.status().ToString().c_str());
      return 1;
    }
  }

  std::vector<Pass> passes;
  SpanRecorder spans;
  if (args.trace == 0) {
    const double budget = std::min(args.seconds, kMaxMeasureSeconds);
    ftoa::Stopwatch elapsed;
    double last_pass = 0.0;
    do {
      const double start = elapsed.ElapsedSeconds();
      passes.push_back(RunPass(&run, nullptr, passes.empty()));
      if (passes.size() == 1) run.peak_rss_mb = PeakRssMb();
      last_pass = elapsed.ElapsedSeconds() - start;
    } while (elapsed.ElapsedSeconds() + last_pass <= budget);
  } else {
    passes.push_back(RunPass(&run, nullptr, true));
    passes.push_back(RunPass(&run, &spans, false));
    passes.push_back(RunPass(&run, nullptr, false));
  }

  int64_t attempted = 0;
  int64_t failed = 0;
  const Pass& first = passes.front();
  for (const Pass& pass : passes) {
    attempted += run.timed_windows;
    const char* failure =
        !pass.check.ok    ? pass.check.reason.c_str()
        : !first.check.ok ? "the first pass failed its check"
        : pass.pairs_hash != first.pairs_hash ? "pairs differ between passes"
                                              : nullptr;
    if (failure != nullptr) {
      failed += run.timed_windows;
      std::fprintf(stderr, "output check failed: %s\n", failure);
    }
  }
  std::fprintf(stderr,
               "servebench %s seed=%llu passes=%zu timed_windows=%lld "
               "setups=%zu matched=%lld infeasible=%lld reference=%s\n",
               run.workload->name.c_str(),
               static_cast<unsigned long long>(seed), passes.size(),
               static_cast<long long>(attempted), run.setup_seconds.size(),
               static_cast<long long>(passes.front().totals.matched),
               static_cast<long long>(passes.front().check.infeasible_pairs),
               run.expected.matched < 0 ? "skipped" : "checked");
  for (const Pass& pass : passes) {
    std::fprintf(stderr, "  pass arrivals_per_s=%.0f window_ms_p50=%.3f\n",
                 ArrivalsPerSecond({pass}), Percentile(pass.window_ms, 50.0));
  }
  if (args.trace == 1) {
    const std::string path =
        args.trace_out.empty()
            ? ".bench_build/traces/" + run.workload->name + "-seed" +
                  std::to_string(seed) + ".jsonl"
            : args.trace_out;
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    std::error_code ignored;  // A missing directory fails the write below.
    if (!parent.empty()) std::filesystem::create_directories(parent, ignored);
    const ftoa::Status written = spans.WriteJsonl(path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    PrintResult(failed == 0, attempted, failed,
                PerLayerMetrics(passes, spans.size()));
  } else {
    PrintResult(failed == 0, attempted, failed, EndToEndMetrics(run, passes));
  }
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
