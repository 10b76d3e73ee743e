#include "layer_replay.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/algorithm_registry.h"
#include "core/prediction_matrix.h"
#include "model/arrival_stream.h"
#include "sim/sharded_dispatcher.h"

namespace servebench {

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int64_t SpanRecorder::Open(const std::string& name, int64_t parent) {
  Span span;
  span.parent = parent;
  span.name = name;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size());
}

void SpanRecorder::Close(int64_t id) {
  spans_[static_cast<size_t>(id - 1)].end_ns = NowNs();
}

void SpanRecorder::Count(int64_t id, const std::string& key, double value) {
  spans_[static_cast<size_t>(id - 1)].counts.emplace_back(key, value);
}

double SpanRecorder::Millis(int64_t id) const {
  const Span& span = spans_[static_cast<size_t>(id - 1)];
  return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
}

ftoa::Status SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return ftoa::Status::IoError("cannot write spans to " + path);
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"parent\": %lld, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"counts\": {",
                 i + 1, static_cast<long long>(span.parent),
                 span.name.c_str(), static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
    for (size_t c = 0; c < span.counts.size(); ++c) {
      std::fprintf(out, "%s\"%s\": %.17g", c == 0 ? "" : ", ",
                   span.counts[c].first.c_str(), span.counts[c].second);
    }
    std::fprintf(out, "}}\n");
  }
  if (std::fclose(out) != 0) {
    return ftoa::Status::IoError("cannot write spans to " + path);
  }
  return ftoa::Status::OK();
}

namespace {

ftoa::GuideOptions ReplayGuideOptions(const Workload& workload,
                                      const ftoa::CityProfile& profile) {
  // The harness resolves its guide options the same way at Create.
  ftoa::GuideOptions options = OptionsFor(workload).guide;
  options.worker_duration = profile.worker_duration;
  options.task_duration = profile.task_duration;
  return options;
}

}  // namespace

LayerReplay::LayerReplay(const Workload& workload, const Inputs& inputs)
    : workload_(workload),
      source_(inputs.profile, inputs.trace),
      guide_options_(ReplayGuideOptions(workload, inputs.profile)),
      generator_(inputs.profile.velocity, guide_options_) {}

ftoa::Result<DayLayers> LayerReplay::ReplayDay(int64_t day,
                                               SpanRecorder* spans,
                                               int64_t parent) {
  DayLayers out;
  if (previous_day_ != day - 1) {
    FTOA_ASSIGN_OR_RETURN(previous_, source_.ArrivalsForDay(day - 1));
    previous_day_ = day - 1;
  }
  const int64_t day_span = spans->Open("replay.day", parent);
  spans->Count(day_span, "day", static_cast<double>(day));

  int64_t span = spans->Open("gen.arrivals_for_day", day_span);
  FTOA_ASSIGN_OR_RETURN(std::vector<ftoa::StreamArrival> arrivals,
                        source_.ArrivalsForDay(day));
  spans->Close(span);
  out.ingest_ms = spans->Millis(span);
  out.arrivals = static_cast<int64_t>(arrivals.size());
  spans->Count(span, "arrivals", static_cast<double>(out.arrivals));

  // Yesterday's realized counts: the harness's refresh prediction.
  const ftoa::SpacetimeSpec spacetime = source_.DaySpacetime();
  ftoa::PredictionMatrix prediction(spacetime);
  const double previous_start =
      static_cast<double>(day - 1) * source_.day_horizon();
  for (const ftoa::StreamArrival& arrival : previous_) {
    const ftoa::TypeId type =
        spacetime.TypeOf(arrival.location, arrival.time - previous_start);
    if (arrival.kind == ftoa::ObjectKind::kWorker) {
      prediction.set_workers_at(type, prediction.workers_at(type) + 1);
    } else {
      prediction.set_tasks_at(type, prediction.tasks_at(type) + 1);
    }
  }
  out.edge_estimate = generator_.EstimateNodeLevelEdges(prediction);
  span = spans->Open("core.guide_generate", day_span);
  FTOA_ASSIGN_OR_RETURN(ftoa::OfflineGuide guide,
                        generator_.Generate(prediction));
  spans->Close(span);
  out.solve_ms = spans->Millis(span);
  // kAuto solves the compressed network exactly when the node-level one
  // would exceed the edge limit; only that engine decomposes.
  out.components = out.edge_estimate > guide_options_.node_level_edge_limit
                       ? generator_.last_num_components()
                       : 0;
  spans->Count(span, "edge_estimate", static_cast<double>(out.edge_estimate));
  spans->Count(span, "components", static_cast<double>(out.components));

  span = spans->Open("gen.instance_for_day", day_span);
  FTOA_ASSIGN_OR_RETURN(const ftoa::Instance instance,
                        source_.generator().GenerateInstanceForDay(
                            static_cast<int>(day % source_.loop_days())));
  const std::vector<ftoa::ArrivalEvent> stream =
      ftoa::BuildArrivalStream(instance);
  ftoa::AlgorithmDeps deps;
  deps.guide = std::make_shared<const ftoa::OfflineGuide>(std::move(guide));
  deps.retrieval = workload_.retrieval;
  FTOA_ASSIGN_OR_RETURN(std::unique_ptr<ftoa::OnlineAlgorithm> algorithm,
                        ftoa::CreateAlgorithm("polar-op", deps));
  ftoa::ShardedOptions sharded;
  sharded.num_shards = workload_.num_shards;
  sharded.num_threads = 1;
  sharded.reconcile = false;
  ftoa::ShardedDispatcher dispatcher(algorithm.get(), sharded);
  spans->Close(span);

  span = spans->Open("sim.decide", day_span);
  std::unique_ptr<ftoa::ShardedSession> session =
      dispatcher.StartSession(instance);
  session->set_collect_dispatches(false);
  const int64_t windows = source_.generator().profile().slots_per_day;
  size_t cursor = 0;
  for (int64_t window = 0; window <= windows; ++window) {
    const double start = static_cast<double>(window);
    if (window > 0) session->AdvanceTo(start);
    for (; cursor < stream.size() &&
           (window == windows || stream[cursor].time < start + 1.0);
         ++cursor) {
      const ftoa::ArrivalEvent& event = stream[cursor];
      if (event.kind == ftoa::ObjectKind::kWorker) {
        session->OnWorker(event.index, event.time);
      } else {
        session->OnTask(event.index, event.time);
      }
    }
  }
  FTOA_ASSIGN_OR_RETURN(ftoa::ShardedRunResult result, session->Finish());
  spans->Close(span);
  out.decide_ms = spans->Millis(span);
  out.decisions = static_cast<int64_t>(stream.size());
  out.matched = static_cast<int64_t>(result.assignment.size());
  out.retrieval = result.trace.retrieval;
  double busy_sum = 0.0;
  double busy_max = 0.0;
  for (const ftoa::RunMetrics& shard : result.shard_metrics) {
    busy_sum += shard.busy_seconds;
    busy_max = std::max(busy_max, shard.busy_seconds);
  }
  if (busy_sum > 0.0) {
    out.shard_busy_max_over_mean =
        busy_max * static_cast<double>(result.shard_metrics.size()) /
        busy_sum;
  }
  spans->Count(span, "decisions", static_cast<double>(out.decisions));
  spans->Count(span, "matched", static_cast<double>(out.matched));
  spans->Count(span, "retrieval_queries",
               static_cast<double>(out.retrieval.queries));
  spans->Count(span, "candidates_examined",
               static_cast<double>(out.retrieval.candidates_examined));

  if (workload_.reconcile) {
    ftoa::ReconcileOptions options;
    options.policy = algorithm->feasibility_policy();
    options.guide = algorithm->guide();
    span = spans->Open("sim.reconcile", day_span);
    FTOA_ASSIGN_OR_RETURN(out.reconcile,
                          ftoa::ReconcileShardBoundary(
                              instance, session->router(), options,
                              &result.assignment));
    spans->Close(span);
    out.reconcile_ms = spans->Millis(span);
    spans->Count(span, "boundary_workers",
                 static_cast<double>(out.reconcile.boundary_workers));
    spans->Count(span, "boundary_tasks",
                 static_cast<double>(out.reconcile.boundary_tasks));
    spans->Count(span, "recovered_pairs",
                 static_cast<double>(out.reconcile.recovered_pairs));
    spans->Count(span, "retrieval_queries",
                 static_cast<double>(out.reconcile.retrieval.queries));
    spans->Count(
        span, "candidates_examined",
        static_cast<double>(out.reconcile.retrieval.candidates_examined));
  }
  spans->Close(day_span);
  out.day_ms = spans->Millis(day_span);

  previous_ = std::move(arrivals);
  previous_day_ = day;
  return out;
}

}  // namespace servebench
