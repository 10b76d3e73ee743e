// Traced-run support: an in-memory span recorder and the per-day replay of
// one workload's inputs through the lower layers' public calls.
//
// A span is (id, parent, name, start, end, counts); spans stay in memory and
// are written as JSON lines when the run ends. The replay of stream day d
// mirrors what the serving harness does inside that day's windows, one layer
// per span:
//   gen.arrivals_for_day  LoopedTraceSource::ArrivalsForDay(d)
//   core.guide_generate   GuideGenerator::Generate on day d-1's realized
//                         per-type counts (DaySpacetime().TypeOf, as the
//                         harness's refresh prediction builds them)
//   sim.decide            day d's instance through a ShardedSession with the
//                         workload's shards and retrieval and that guide:
//                         arrivals in order, AdvanceTo at window
//                         boundaries, Finish, reconcile off
//   sim.reconcile         ReconcileShardBoundary on that instance and the
//                         merged assignment (reconciling workloads only)

#ifndef SERVEBENCH_LAYER_REPLAY_H_
#define SERVEBENCH_LAYER_REPLAY_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/guide_generator.h"
#include "gen/looped_trace.h"
#include "retrieval/stats.h"
#include "sim/boundary_reconciler.h"
#include "util/result.h"
#include "workloads.h"

namespace servebench {

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  /// Opens a span; parent 0 is the root. Returns its id (>= 1).
  int64_t Open(const std::string& name, int64_t parent);
  void Close(int64_t id);
  void Count(int64_t id, const std::string& key, double value);

  size_t size() const { return spans_.size(); }
  /// Duration of a closed span.
  double Millis(int64_t id) const;

  /// Writes one JSON object per span, in open order.
  ftoa::Status WriteJsonl(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Span {
    int64_t parent = 0;
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    std::vector<std::pair<std::string, double>> counts;
  };
  int64_t NowNs() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// What one replayed day measured, layer by layer.
struct DayLayers {
  double day_ms = 0.0;  ///< Whole replay of the day (sum of the layers).

  double ingest_ms = 0.0;
  int64_t arrivals = 0;

  double solve_ms = 0.0;
  int64_t edge_estimate = 0;  ///< EstimateNodeLevelEdges of the prediction.
  int64_t components = 0;     ///< 0 when the node-level engine solved it.

  double decide_ms = 0.0;
  int64_t decisions = 0;
  int64_t matched = 0;
  double shard_busy_max_over_mean = 1.0;
  ftoa::RetrievalStats retrieval;

  double reconcile_ms = 0.0;
  ftoa::ReconcileStats reconcile;
};

class LayerReplay {
 public:
  LayerReplay(const Workload& workload, const Inputs& inputs);

  /// Replays stream day `day` (>= 1) under span `parent`.
  ftoa::Result<DayLayers> ReplayDay(int64_t day, SpanRecorder* spans,
                                    int64_t parent);

 private:
  Workload workload_;
  ftoa::LoopedTraceSource source_;
  ftoa::GuideOptions guide_options_;
  ftoa::GuideGenerator generator_;
  /// Arrivals of the last replayed day: the next day's realized counts.
  std::vector<ftoa::StreamArrival> previous_;
  int64_t previous_day_ = -1;
};

}  // namespace servebench

#endif  // SERVEBENCH_LAYER_REPLAY_H_
