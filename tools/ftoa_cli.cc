// ftoa — command-line front end for the library, the entry point a
// downstream user scripts against.
//
//   ftoa generate synthetic --workers=5000 --tasks=5000 --out=day.csv
//   ftoa generate city --city=beijing --day=20 --scale=0.1 --out=day.csv
//   ftoa run --instance=day.csv --algorithm=polar-op [--strict] [--stream]
//   ftoa run --instance=day.csv --algorithm=polar-op --shards=4
//   ftoa serve --city=beijing --scale=0.05 --windows=36
//        ... --faults=flash@8-9:factor=4 --slo-p99-ms=5
//   ftoa algos
//   ftoa inspect --instance=day.csv
//
// `run` executes one algorithm over a saved instance and prints matching
// size, wall time, peak heap, and (with --strict) the physical
// re-verification breakdown; --stream drives the algorithm's streaming
// session arrival by arrival and reports per-decision latency percentiles;
// --shards=K routes arrivals through the sharded dispatcher (K per-shard
// sessions, merged assignment — see docs/sharded_dispatch.md) with
// --shard-threads (default auto: min(K, cores)), --router=NAME (the registered shard
// routers: grid | hash | load), --handoff-batch=N (events staged per
// batched queue handoff; 1 = per-event), and --reconcile (post-merge
// boundary reconciliation recovering cross-shard matches). The guide is
// built by GuideOptions::Engine::kAuto.
// `serve` runs the long-running serving harness (serve/service_harness)
// over the looped city trace: rolling eviction, live guide refresh with
// hot-swap and a degradation ladder, fault injection (--faults, the
// serve/fault_injector spec grammar), and SLO-driven admission control —
// printing one metrics line per window plus lifetime totals. `run` and
// `serve` reject unknown flags (exit 2), listing the valid set.
// `algos` lists every algorithm the registry knows. The guide for
// POLAR-family algorithms is derived from the instance's own realized
// counts unless --prediction points at a second instance file whose counts
// act as the forecast.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithm_registry.h"
#include "core/guide_generator.h"
#include "gen/city_trace.h"
#include "gen/synthetic.h"
#include "model/io.h"
#include "prediction/registry.h"
#include "retrieval/mode.h"
#include "serve/service_harness.h"
#include "sim/runner.h"
#include "sim/sharded_dispatcher.h"
#include "util/string_util.h"

namespace ftoa {
namespace {

/// Simple --key=value argument map.
class ArgMap {
 public:
  ArgMap(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (!StartsWith(arg, "--")) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        std::exit(2);
      }
      arg = arg.substr(2);
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg] = "true";
      } else {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    }
  }

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const auto parsed = ParseDouble(it->second);
    if (!parsed.ok()) {
      std::fprintf(stderr, "invalid number for --%s\n", key.c_str());
      std::exit(2);
    }
    return *parsed;
  }
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const auto parsed = ParseInt(it->second);
    if (!parsed.ok()) {
      std::fprintf(stderr, "invalid integer for --%s\n", key.c_str());
      std::exit(2);
    }
    return *parsed;
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::vector<std::string> Keys() const {
    std::vector<std::string> keys;
    for (const auto& entry : values_) keys.push_back(entry.first);
    return keys;
  }

 private:
  std::map<std::string, std::string> values_;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  ftoa generate synthetic [--workers=N] [--tasks=N] [--grid=N]\n"
      "       [--slots=N] [--dr=F] [--dw=F] [--seed=N] --out=FILE\n"
      "  ftoa generate city [--city=beijing|hangzhou] [--day=N]\n"
      "       [--scale=F] --out=FILE\n"
      "  ftoa run --instance=FILE --algorithm=NAME [--prediction=FILE]\n"
      "       [--strict] [--stream] [--dr=F] [--dw=F]\n"
      "       [--shards=K] [--shard-threads=N] [--router=%s]\n"
      "       [--handoff-batch=N] [--reconcile]\n"
      "       [--retrieval=%s] [--approx-guide[=RATE]]\n"
      "       (NAME: %s)\n"
      "  ftoa serve [--city=beijing|hangzhou] [--scale=F] [--windows=N]\n"
      "       [--algorithm=NAME] [--shards=K] [--shard-threads=N]\n"
      "       [--windows-per-segment=N] [--refresh-period=N]\n"
      "       [--background-refresh] [--slo-p99-ms=F]\n"
      "       [--max-queue-depth=N] [--max-live-objects=N]\n"
      "       [--max-guide-age=N] [--faults=SPEC] [--fault-seed=N]\n"
      "       [--loop-days=N] [--reconcile]\n"
      "       [--retrieval=%s (default: auto by workload)]\n"
      "       [--refresh-mode=%s] [--refresh-predictor=%s]\n"
      "       [--analytical-slice=N]\n"
      "  ftoa algos\n"
      "  ftoa inspect --instance=FILE\n",
      Join(AllShardRouterNames(), "|").c_str(),
      Join(AllRetrievalModeNames(), "|").c_str(),
      Join(AllAlgorithmNames(), " | ").c_str(),
      Join(AllRetrievalModeNames(), "|").c_str(),
      Join(AllGuideRefreshModeNames(), "|").c_str(),
      Join(AllPredictorNames(), "|").c_str());
  return 2;
}

/// False (after printing the valid set) when `args` holds a flag outside
/// `valid`: a typo'd flag silently ignored would run something other than
/// what was asked for, so the caller exits with a usage error.
bool OnlyKnownFlags(const char* command, const ArgMap& args,
                    const std::vector<std::string>& valid) {
  for (const std::string& key : args.Keys()) {
    if (std::find(valid.begin(), valid.end(), key) == valid.end()) {
      std::string names;
      for (const std::string& flag : valid) {
        if (!names.empty()) names += ", ";
        names += "--" + flag;
      }
      std::fprintf(stderr, "%s: unknown flag --%s (valid: %s)\n", command,
                   key.c_str(), names.c_str());
      return false;
    }
  }
  return true;
}

int CmdGenerate(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string kind = argv[2];
  const ArgMap args(argc, argv, 3);
  const std::string out = args.Get("out");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 2;
  }

  Result<Instance> instance = Status::Unimplemented("unknown kind");
  if (kind == "synthetic") {
    SyntheticConfig config;
    config.num_workers = static_cast<int>(args.GetInt("workers", 20000));
    config.num_tasks = static_cast<int>(args.GetInt("tasks", 20000));
    config.grid_x = static_cast<int>(args.GetInt("grid", 50));
    config.grid_y = config.grid_x;
    config.num_slots = static_cast<int>(args.GetInt("slots", 48));
    config.task_duration = args.GetDouble("dr", 2.0);
    config.worker_duration = args.GetDouble("dw", 3.0);
    config.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
    instance = GenerateSyntheticInstance(config);
  } else if (kind == "city") {
    CityProfile profile = args.Get("city", "beijing") == "hangzhou"
                              ? HangzhouProfile()
                              : BeijingProfile();
    const double scale = args.GetDouble("scale", 0.1);
    profile.workers_per_day *= scale;
    profile.tasks_per_day *= scale;
    const CityTraceGenerator generator(profile);
    instance = generator.GenerateInstanceForDay(
        static_cast<int>(args.GetInt("day", profile.history_days - 3)));
  } else {
    return Usage();
  }
  if (!instance.ok()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 instance.status().ToString().c_str());
    return 1;
  }
  const Status saved = SaveInstanceCsv(*instance, out);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu workers and %zu tasks to %s\n",
              instance->num_workers(), instance->num_tasks(), out.c_str());
  return 0;
}

int CmdRun(int argc, char** argv) {
  const ArgMap args(argc, argv, 2);
  static const std::vector<std::string> kRunFlags = {
      "instance",      "algorithm", "prediction",    "strict",
      "stream",        "dr",        "dw",            "shards",
      "shard-threads", "router",    "handoff-batch", "reconcile",
      "retrieval",     "approx-guide"};
  if (!OnlyKnownFlags("run", args, kRunFlags)) return 2;
  const std::string path = args.Get("instance");
  const std::string algorithm_name = args.Get("algorithm", "polar-op");
  if (path.empty()) {
    std::fprintf(stderr, "run: --instance is required\n");
    return 2;
  }
  auto instance = LoadInstanceCsv(path);
  if (!instance.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 instance.status().ToString().c_str());
    return 1;
  }

  // Guide-based algorithms need a prediction.
  AlgorithmDeps deps;
  {
    const auto retrieval = ParseRetrievalMode(args.Get("retrieval", "linear"));
    if (!retrieval.ok()) {
      // NotFound carries the valid-name set (AllRetrievalModeNames).
      std::fprintf(stderr, "run: %s\n",
                   retrieval.status().ToString().c_str());
      return 2;
    }
    deps.retrieval = *retrieval;
  }
  if (AlgorithmNeedsGuide(algorithm_name)) {
    PredictionMatrix prediction = PredictionMatrix::FromInstance(*instance);
    const std::string prediction_path = args.Get("prediction");
    if (!prediction_path.empty()) {
      auto forecast_instance = LoadInstanceCsv(prediction_path);
      if (!forecast_instance.ok()) {
        std::fprintf(stderr, "prediction load failed: %s\n",
                     forecast_instance.status().ToString().c_str());
        return 1;
      }
      prediction = PredictionMatrix::FromInstance(*forecast_instance);
    }
    GuideOptions options;
    options.engine = GuideOptions::Engine::kAuto;
    options.worker_duration =
        args.GetDouble("dw", instance->MaxWorkerDuration());
    options.task_duration =
        args.GetDouble("dr", instance->MaxTaskDuration());
    if (args.Has("approx-guide")) {
      // Bare --approx-guide takes the default half-rate sample; an
      // explicit =RATE must be numeric (Generate validates the (0, 1]
      // range and the engine restriction).
      options.approx_sample_rate =
          args.Get("approx-guide") == "true"
              ? 0.5
              : args.GetDouble("approx-guide", 0.5);
    }
    const GuideGenerator generator(instance->velocity(), options);
    auto generated = generator.Generate(prediction);
    if (!generated.ok()) {
      std::fprintf(stderr, "guide generation failed: %s\n",
                   generated.status().ToString().c_str());
      return 1;
    }
    if (options.approx_sample_rate < 1.0) {
      const ApproxGuideReport& report = generator.last_approx_report();
      std::printf("approx guide   %lld of %lld type pairs kept "
                  "(rate %.3f); matched-utility loss <= %lld\n",
                  static_cast<long long>(report.sampled_pairs),
                  static_cast<long long>(report.feasible_pairs),
                  options.approx_sample_rate,
                  static_cast<long long>(report.utility_loss_bound));
    }
    deps.guide = std::make_shared<const OfflineGuide>(
        std::move(generated).value());
  }

  auto algorithm = CreateAlgorithm(algorithm_name, deps);
  if (!algorithm.ok()) {
    // NotFound carries the valid-name set (AllAlgorithmNames).
    std::fprintf(stderr, "%s\n", algorithm.status().ToString().c_str());
    return 2;
  }

  RunnerOptions options;
  options.strict_verification = args.Has("strict");
  options.streaming = args.Has("stream");
  options.num_shards = static_cast<int>(args.GetInt("shards", 0));
  // Resolve 0 = auto exactly like the dispatcher will, so the summary
  // below reports the thread count actually used.
  options.shard_threads = ShardedDispatcher::ResolveNumThreads(
      static_cast<int>(args.GetInt("shard-threads", 0)),
      options.num_shards);
  const std::string router = args.Get("router", "grid");
  const auto router_kind = ParseShardRouterKind(router);
  if (!router_kind.ok()) {
    // NotFound carries the valid-name set (AllShardRouterNames).
    std::fprintf(stderr, "run: %s\n",
                 router_kind.status().ToString().c_str());
    return 2;
  }
  options.shard_router = *router_kind;
  options.shard_handoff_batch =
      static_cast<int>(args.GetInt("handoff-batch", 0));
  options.shard_reconcile = args.Has("reconcile");
  const auto metrics = RunAlgorithm(algorithm->get(), *instance, options);
  if (!metrics.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 metrics.status().ToString().c_str());
    return 1;
  }
  std::printf("algorithm      %s\n", metrics->algorithm.c_str());
  std::printf("matching size  %lld  (of %zu workers / %zu tasks)\n",
              static_cast<long long>(metrics->matching_size),
              instance->num_workers(), instance->num_tasks());
  std::printf("time           %.4f s\n", metrics->elapsed_seconds);
  std::printf("peak heap      %s\n",
              FormatBytes(metrics->peak_memory_bytes).c_str());
  if (options.strict_verification) {
    std::printf("strict check   %lld feasible / %lld violations; %lld "
                "workers relocated\n",
                static_cast<long long>(metrics->strict_feasible_pairs),
                static_cast<long long>(metrics->strict_violations),
                static_cast<long long>(metrics->dispatched_workers));
  }
  if (options.num_shards >= 1) {
    std::printf("shards         %d (%s router, %d threads, handoff batch "
                "%s)\n",
                options.num_shards, router.c_str(), options.shard_threads,
                options.shard_handoff_batch > 0
                    ? std::to_string(options.shard_handoff_batch).c_str()
                    : "default");
    if (options.shard_reconcile) {
      std::printf("reconciled     %lld cross-shard pairs recovered\n",
                  static_cast<long long>(metrics->reconciled_pairs));
    }
  }
  if (options.streaming || options.num_shards >= 1) {
    std::printf("busy time      %.4f s in session decisions\n",
                metrics->busy_seconds);
    std::printf("decisions      %lld (streaming session)\n",
                static_cast<long long>(metrics->decisions));
    std::printf("latency        p50 %.0f ns / p99 %.0f ns / max %.0f ns "
                "per decision\n",
                metrics->decision_latency_p50_ns,
                metrics->decision_latency_p99_ns,
                metrics->decision_latency_max_ns);
  }
  return 0;
}

int CmdServe(int argc, char** argv) {
  const ArgMap args(argc, argv, 2);
  static const std::vector<std::string> kServeFlags = {
      "city",       "scale",          "loop-days",
      "windows",    "algorithm",      "shards",
      "shard-threads", "windows-per-segment", "refresh-period",
      "background-refresh", "slo-p99-ms", "max-queue-depth",
      "max-live-objects", "max-guide-age", "faults",
      "fault-seed", "reconcile",      "retrieval",
      "refresh-mode", "refresh-predictor", "analytical-slice"};
  if (!OnlyKnownFlags("serve", args, kServeFlags)) return 2;

  CityProfile profile = args.Get("city", "beijing") == "hangzhou"
                            ? HangzhouProfile()
                            : BeijingProfile();
  LoopedTraceSource::Options trace;
  trace.scale = args.GetDouble("scale", 0.05);
  trace.loop_days = static_cast<int>(args.GetInt("loop-days", 0));

  ServiceOptions options;
  options.algorithm = args.Get("algorithm", "polar-op");
  options.num_shards = static_cast<int>(args.GetInt("shards", 1));
  options.shard_threads =
      static_cast<int>(args.GetInt("shard-threads", 1));
  options.windows_per_segment =
      static_cast<int>(args.GetInt("windows-per-segment", 0));
  options.refresh_period_windows =
      static_cast<int>(args.GetInt("refresh-period", 0));
  options.background_refresh = args.Has("background-refresh");
  options.slo_p99_ms = args.GetDouble("slo-p99-ms", 0.0);
  options.max_queue_depth = args.GetInt("max-queue-depth", 0);
  options.max_live_objects = args.GetInt("max-live-objects", 0);
  options.max_guide_age_windows = args.GetInt("max-guide-age", 0);
  options.faults = args.Get("faults");
  options.fault_seed = static_cast<uint64_t>(args.GetInt("fault-seed", 1));
  options.reconcile = args.Has("reconcile");
  {
    const auto mode =
        ParseGuideRefreshMode(args.Get("refresh-mode", "cold"));
    if (!mode.ok()) {
      std::fprintf(stderr, "serve: %s\n", mode.status().ToString().c_str());
      return 2;
    }
    options.guide.refresh_mode = *mode;
  }
  options.refresh_predictor = args.Get("refresh-predictor");
  options.analytical_slice =
      static_cast<int>(args.GetInt("analytical-slice", 0));
  std::string retrieval_note;
  if (args.Has("retrieval")) {
    const auto retrieval = ParseRetrievalMode(args.Get("retrieval"));
    if (!retrieval.ok()) {
      std::fprintf(stderr, "serve: %s\n",
                   retrieval.status().ToString().c_str());
      return 2;
    }
    options.retrieval = *retrieval;
  } else {
    // No --retrieval: pick the backend from the measured workload. By
    // Little's law the steady-state live population is sum(durations) /
    // day_horizon over one source day; the engine's expanding-ring search
    // beats the linear scans once the live set is dense enough per grid
    // cell (crossover fitted from BENCH_retrieval.json: on its 30x30
    // grid linear wins at 2000 live objects, the engine from ~4000, so
    // ~4.5 live objects per cell).
    constexpr double kEngineCrossoverPerCell = 4.5;
    const LoopedTraceSource probe(profile, trace);
    auto day0 = probe.ArrivalsForDay(0);
    if (!day0.ok()) {
      std::fprintf(stderr, "serve: %s\n", day0.status().ToString().c_str());
      return 2;
    }
    double duration_sum = 0.0;
    for (const StreamArrival& arrival : *day0) {
      duration_sum += arrival.duration;
    }
    const SpacetimeSpec day_spec = probe.DaySpacetime();
    const double cells = static_cast<double>(day_spec.grid().cells_x()) *
                         static_cast<double>(day_spec.grid().cells_y());
    const double live_per_cell =
        duration_sum / std::max(1.0, probe.day_horizon()) /
        std::max(1.0, cells);
    options.retrieval = live_per_cell >= kEngineCrossoverPerCell
                            ? RetrievalMode::kEngine
                            : RetrievalMode::kLinear;
    char note[160];
    std::snprintf(note, sizeof(note),
                  "auto: %s (est %.1f live objects/cell, engine crossover "
                  "%.1f; see BENCH_retrieval.json)",
                  RetrievalModeName(options.retrieval).c_str(),
                  live_per_cell, kEngineCrossoverPerCell);
    retrieval_note = note;
  }

  auto harness = ServiceHarness::Create(profile, trace, options);
  if (!harness.ok()) {
    // NotFound/InvalidArgument carry the valid algorithm / fault sets.
    std::fprintf(stderr, "serve: %s\n",
                 harness.status().ToString().c_str());
    return 2;
  }
  if (!retrieval_note.empty()) {
    std::printf("retrieval      %s\n", retrieval_note.c_str());
  }
  const int64_t windows =
      args.GetInt("windows", 3 * profile.slots_per_day);
  const Status run = (*harness)->RunWindows(windows);
  if (!run.ok()) {
    std::fprintf(stderr, "serve failed: %s\n", run.ToString().c_str());
    return 1;
  }

  // rq/exam/c50/c99: retrieval-engine queries, candidates examined, and
  // per-query cells-visited percentiles of the segment rotated at that
  // window (zero between rotations, and for the guide-only algorithms and
  // greedy under --retrieval=linear, which make no engine queries).
  // rfr ms/WC/reuse: solve wall time of the refresh cycle whose publish
  // landed at that window, warm (W) or cold (C), and reused/total
  // components ("-" between publishes).
  std::printf(
      "window day  offered admitted shed drop match  p99 ms   live "
      "evict epoch age      rq    exam c50  c99   rfr ms WC   reuse "
      "flags\n");
  for (const WindowMetrics& w : (*harness)->windows()) {
    const bool published = w.refresh_ms > 0.0;
    char reuse[24] = "      -";
    if (published) {
      std::snprintf(reuse, sizeof(reuse), "%3lld/%-3lld",
                    static_cast<long long>(w.refresh_components_reused),
                    static_cast<long long>(w.refresh_components_total));
    }
    std::printf(
        "%6lld %3lld  %7lld %8lld %4lld %4lld %5lld %7.3f %6lld %5lld "
        "%5lld %3lld %7lld %7lld %3lld %4lld %8.2f %2s %7s %s%s\n",
        static_cast<long long>(w.window), static_cast<long long>(w.day),
        static_cast<long long>(w.offered),
        static_cast<long long>(w.admitted), static_cast<long long>(w.shed),
        static_cast<long long>(w.dropped_arrivals),
        static_cast<long long>(w.matched), w.p99_ms,
        static_cast<long long>(w.live_objects),
        static_cast<long long>(w.evicted),
        static_cast<long long>(w.guide_epoch),
        static_cast<long long>(w.guide_age_windows),
        static_cast<long long>(w.retrieval_queries),
        static_cast<long long>(w.candidates_examined),
        static_cast<long long>(w.cells_visited_p50),
        static_cast<long long>(w.cells_visited_p99), w.refresh_ms,
        published ? (w.refresh_warm ? "W" : "C") : "-", reuse,
        w.degraded_greedy ? "D" : "", w.overloaded ? "O" : "");
  }
  const ServiceTotals& totals = (*harness)->totals();
  std::printf("served         %lld windows (%lld segments)\n",
              static_cast<long long>(totals.windows),
              static_cast<long long>(totals.segments));
  std::printf("admitted       %lld of %lld offered (%lld shed, %lld "
              "dropped in handoff)\n",
              static_cast<long long>(totals.admitted),
              static_cast<long long>(totals.offered),
              static_cast<long long>(totals.shed),
              static_cast<long long>(totals.dropped_arrivals));
  std::printf("matched        %lld pairs\n",
              static_cast<long long>(totals.matched));
  std::printf("evicted        %lld expired (store peak %lld, now %lld; "
              "%lld live)\n",
              static_cast<long long>(totals.evictions),
              static_cast<long long>(totals.store_peak),
              static_cast<long long>((*harness)->store_size()),
              static_cast<long long>((*harness)->live_objects()));
  const GuideRefresher::Stats& refresher = (*harness)->refresher_stats();
  std::printf("guide          epoch %lld, %lld publishes, %lld failed "
              "cycles, %lld hot-swaps adopted\n",
              static_cast<long long>((*harness)->guide_epoch()),
              static_cast<long long>(refresher.publishes),
              static_cast<long long>(refresher.failed_cycles),
              static_cast<long long>(totals.guide_swaps));
  std::printf("refresh        %lld warm / %lld cold publishes, %lld of "
              "%lld components reused, %.2f ms total solve\n",
              static_cast<long long>(totals.warm_refreshes),
              static_cast<long long>(totals.cold_refreshes),
              static_cast<long long>(totals.refresh_components_reused),
              static_cast<long long>(totals.refresh_components_reused +
                                     totals.refresh_components_solved),
              totals.refresh_ms);
  return 0;
}

int CmdAlgos() {
  // One canonical name per line plus the display name benches print.
  for (const std::string& name : AllAlgorithmNames()) {
    std::printf("%-14s %s\n", name.c_str(),
                AlgorithmDisplayName(name).c_str());
  }
  return 0;
}

int CmdInspect(int argc, char** argv) {
  const ArgMap args(argc, argv, 2);
  const std::string path = args.Get("instance");
  if (path.empty()) {
    std::fprintf(stderr, "inspect: --instance is required\n");
    return 2;
  }
  auto instance = LoadInstanceCsv(path);
  if (!instance.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 instance.status().ToString().c_str());
    return 1;
  }
  const GridSpec& grid = instance->spacetime().grid();
  const SlotSpec& slots = instance->spacetime().slots();
  std::printf("region     %.1f x %.1f, %d x %d cells\n", grid.width(),
              grid.height(), grid.cells_x(), grid.cells_y());
  std::printf("horizon    %.1f over %d slots\n", slots.horizon(),
              slots.num_slots());
  std::printf("velocity   %.2f\n", instance->velocity());
  std::printf("workers    %zu (max Dw %.2f)\n", instance->num_workers(),
              instance->MaxWorkerDuration());
  std::printf("tasks      %zu (max Dr %.2f)\n", instance->num_tasks(),
              instance->MaxTaskDuration());
  const auto [workers, tasks] = instance->CountsPerType();
  int nonempty = 0;
  int peak = 0;
  for (size_t t = 0; t < workers.size(); ++t) {
    const int total = workers[t] + tasks[t];
    if (total > 0) ++nonempty;
    peak = std::max(peak, total);
  }
  std::printf("types      %d of %d occupied, busiest holds %d objects\n",
              nonempty, instance->spacetime().num_types(), peak);
  return 0;
}

}  // namespace
}  // namespace ftoa

int main(int argc, char** argv) {
  if (argc < 2) return ftoa::Usage();
  const std::string command = argv[1];
  if (command == "generate") return ftoa::CmdGenerate(argc, argv);
  if (command == "run") return ftoa::CmdRun(argc, argv);
  if (command == "serve") return ftoa::CmdServe(argc, argv);
  if (command == "algos") return ftoa::CmdAlgos();
  if (command == "inspect") return ftoa::CmdInspect(argc, argv);
  return ftoa::Usage();
}
