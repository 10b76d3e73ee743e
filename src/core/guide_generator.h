// Offline guide generation (paper Algorithm 1): instantiate the predicted
// per-type counts into bipartite nodes, connect feasible (worker node, task
// node) pairs, and compute a maximum bipartite matching with max flow.
//
// Engines:
//  * kFordFulkerson — Algorithm 1 verbatim (DFS augmenting paths) on the
//    node-level network.
//  * kDinic — same network, Dinic's algorithm ("any other max-flow algorithm
//    is applicable", Section 4 note (1)).
//  * kCompressed — our aggregation: all nodes of one (slot, area) type are
//    interchangeable, so the network can use one node per *type* with
//    capacity a_ij / b_ij. The max-flow value is identical (exact capacity
//    aggregation) while the network shrinks from m + n nodes and
//    sum(a_wt * b_tt) edges to the number of nonempty types and feasible
//    type pairs. This is what makes city-scale guides practical (E15).
//  * kCompressedMinCost — the compressed network solved with min-cost
//    max-flow over travel costs (Section 4 note (2)): among all maximum
//    matchings, pick one minimizing total travel time.
//  * kAuto — node-level Dinic when the node-level network is small,
//    kCompressed otherwise.
//
// Sharded solving: the compressed engines first decompose the type-pair
// network into connected components (union-find over the feasible pairs).
// Components are independent sub-problems — no augmenting path crosses
// them — so each is solved on its own small network, and with
// GuideOptions::num_threads > 1 the components are partitioned into one
// contiguous, pair-count-balanced chunk per thread and solved on per-chunk
// solver arenas in parallel. Per-pair flows are written into a global
// array indexed by the original pair order and realized into guide matches
// in that order after the join, so the resulting guide is bit-identical no
// matter how many threads solved it (the serial path runs the exact same
// decomposition with one chunk).

#ifndef FTOA_CORE_GUIDE_GENERATOR_H_
#define FTOA_CORE_GUIDE_GENERATOR_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/guide.h"
#include "core/prediction_matrix.h"
#include "flow/dinic.h"
#include "flow/flow_engine.h"
#include "flow/graph.h"
#include "flow/min_cost_flow.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace ftoa {

/// How consecutive Generate calls on one GuideGenerator relate.
///  * kCold — every call solves the full network from scratch (arenas are
///    still reused, so steady-state calls stay allocation-free).
///  * kWarm — the generator remembers the previous call's per-component
///    solves; a component whose pair list, capacities, and costs are
///    unchanged reuses its flows verbatim and only *dirty* components are
///    re-solved. Because each component's solve is a deterministic function
///    of the component's network alone, the warm guide is bit-identical to
///    the cold one (the equivalence suite pins this). The win scales with
///    the sparsity of the day-to-day prediction delta — the serving
///    refresher's steady state.
enum class GuideRefreshMode { kCold, kWarm };

/// Canonical names in declaration order ("cold", "warm") — CLI usage
/// strings and unknown-value errors derive from this list.
const std::vector<std::string>& AllGuideRefreshModeNames();

/// Canonical name of `mode`.
const char* GuideRefreshModeName(GuideRefreshMode mode);

/// Parses a canonical name; NotFound (listing the valid set) otherwise.
Result<GuideRefreshMode> ParseGuideRefreshMode(const std::string& name);

/// Tuning knobs for guide generation.
struct GuideOptions {
  enum class Engine {
    kFordFulkerson,
    kDinic,
    kCompressed,
    kCompressedMinCost,
    kAuto,
  };

  Engine engine = Engine::kAuto;

  /// Solver core for the kCompressedMinCost per-component networks (see
  /// flow/flow_engine.h). kAuto picks per component from the component's
  /// measured shape — deterministic for a fixed prediction, so the guide
  /// stays reproducible. Engines may return different equally-cheap flow
  /// patterns, so the guide is bit-identical across thread counts *per
  /// engine* and (matched count, total cost)-equivalent across engines.
  FlowEngine flow_engine = FlowEngine::kAuto;

  /// Representative worker waiting time Dw used in the type-level deadline
  /// test (the platform knows its configured worker patience).
  double worker_duration = 3.0;

  /// Representative task service window Dr used in the type-level test.
  double task_duration = 2.0;

  /// Extra slack (time units) added to the type-level deadline test to
  /// compensate for slot-midpoint discretization: a worker and a task of
  /// the same slot meet at their midpoints in the test, yet the real pair
  /// enjoys up to one slot of extra travel credit (Definition 4 credits
  /// movement from Sw). 0 is the strict midpoint test; half the slot
  /// duration recovers the *expected* intra-slot credit. The paper glosses
  /// this ("such differences can be ignored") because its synthetic
  /// slot/velocity ratio makes it negligible; coarse-slot deployments (the
  /// city traces) are not in that regime.
  double representative_slack = 0.0;

  /// kAuto switches to kCompressed when the node-level network would exceed
  /// this many edges.
  int64_t node_level_edge_limit = 2'000'000;

  /// Worker threads for the sharded compressed solve (see file comment).
  /// 1 = solve all components on the calling thread. The guide is
  /// bit-identical for every value. Only the compressed engines shard;
  /// the node-level network is one component by construction.
  int num_threads = 1;

  /// Approximate-guide mode: keep each feasible type pair in the network
  /// with this probability (seeded Bernoulli per pair, drawn in the
  /// deterministic pair-enumeration order — so the sample, like the exact
  /// solve, is bit-identical across thread counts). 1.0 (the default) is
  /// the exact network. Dropping pairs only removes edges, so the
  /// approximate guide's matched utility is a lower bound of the exact
  /// one; the measured gap bound is reported via last_approx_report().
  /// Must lie in (0, 1]. Values < 1 require a compressed engine (kAuto
  /// routes there automatically).
  double approx_sample_rate = 1.0;

  /// Seed of the pair-sampling stream (only used when
  /// approx_sample_rate < 1).
  uint64_t approx_seed = 0x5eedULL;

  /// Whether repeated Generate calls on this generator reuse unchanged
  /// component solves (see GuideRefreshMode). Only the compressed engines
  /// have components to reuse; the node-level engines always run cold and
  /// report warm = false in last_refresh_stats().
  GuideRefreshMode refresh_mode = GuideRefreshMode::kCold;
};

/// What approximate sampling did to the last generated guide. Each dropped
/// pair (wt, tt) can carry at most min(workers_at(wt), tasks_at(tt)) units
/// of flow, so utility_loss_bound — the sum of those capacities — is a
/// measured upper bound on the matched-pair count the sampled network can
/// lose against the exact one.
struct ApproxGuideReport {
  int64_t feasible_pairs = 0;      ///< Pairs the exact network would hold.
  int64_t sampled_pairs = 0;       ///< Pairs kept by the Bernoulli sample.
  int64_t utility_loss_bound = 0;  ///< Max matched pairs lost (measured).
};

/// What the warm cache did for the last Generate call. With refresh_mode ==
/// kCold (or on the node-level engines, or on the first warm call) every
/// component solves and warm is false; in the warm steady state
/// components_reused tracks how sparse the day-to-day delta really was.
struct GuideRefreshStats {
  bool warm = false;                ///< True iff any component was reused.
  int32_t components_total = 0;     ///< Components in this call's network.
  int32_t components_reused = 0;    ///< Solved by cache hit (no flow solve).
  int32_t components_solved = 0;    ///< Dirty — solved from scratch.
  int64_t pairs_total = 0;          ///< Type pairs in this call's network.
  int64_t pairs_reused = 0;         ///< Pairs whose flow came from the cache.
};

/// Builds OfflineGuide instances from prediction matrices.
///
/// The generator owns reusable solver arenas (flow network edge arenas and
/// the solvers' scratch buffers) — one arena set per shard when
/// num_threads > 1 — so repeated Generate calls (one per prediction window
/// in a live deployment) stop re-allocating the network. Consequently a
/// GuideGenerator instance is NOT thread-safe: it parallelizes internally,
/// but concurrent Generate calls on one instance are undefined; use one
/// instance per calling thread.
class GuideGenerator {
 public:
  /// `velocity` is the shared worker speed of the deployment.
  GuideGenerator(double velocity, GuideOptions options);
  ~GuideGenerator();

  /// Runs Algorithm 1 (or an equivalent engine) on `prediction`.
  Result<OfflineGuide> Generate(const PredictionMatrix& prediction) const;

  /// Number of edges the node-level bipartite network would contain, i.e.
  /// sum over feasible type pairs of a_wt * b_tt. Drives kAuto.
  int64_t EstimateNodeLevelEdges(const PredictionMatrix& prediction) const;

  /// Invokes `fn(worker_type, task_type)` for every type pair whose
  /// representatives satisfy the deadline constraint and whose predicted
  /// counts are both nonzero. Templated on the callback: it runs once per
  /// feasible pair of every network build. Exposed for tests and benches.
  template <typename Fn>
  void ForEachFeasibleTypePair(const PredictionMatrix& prediction,
                               Fn&& fn) const;

  /// Connected components the last compressed Generate decomposed into
  /// (instrumentation for tests and benches; 0 before any compressed run).
  int32_t last_num_components() const { return last_num_components_; }

  /// Sampling outcome of the last compressed Generate. With
  /// approx_sample_rate == 1 it reports the exact network (sampled ==
  /// feasible, loss bound 0).
  const ApproxGuideReport& last_approx_report() const {
    return last_approx_report_;
  }

  /// Warm-cache outcome of the last Generate (see GuideRefreshStats).
  const GuideRefreshStats& last_refresh_stats() const {
    return last_refresh_stats_;
  }

  /// Drops the warm cache; the next Generate solves everything cold. Called
  /// automatically when a call's network-defining inputs (engine choice,
  /// minimize_cost path) differ from the cached call's.
  void InvalidateWarmCache() const;

 private:
  /// One shard's reusable solver state. Each chunk of components is solved
  /// entirely on one arena, so arenas never cross threads within a call.
  struct ShardArena {
    FlowGraph maxflow;
    MinCostFlowGraph mincost;
    DinicSolver dinic;
  };

  Result<OfflineGuide> GenerateNodeLevel(const PredictionMatrix& prediction,
                                         bool use_dinic) const;
  Result<OfflineGuide> GenerateCompressed(const PredictionMatrix& prediction,
                                          bool minimize_cost) const;

  /// The warm cache: the previous compressed call's per-component networks
  /// and solved flows, keyed by a content hash of each component's pair
  /// sequence (types + capacities in deterministic pair order). A new
  /// call's component whose sequence verifies equal against a cached entry
  /// reuses the cached flows verbatim — costs are a pure function of the
  /// type ids, and each component solve is a deterministic function of the
  /// component network alone, so reuse is bit-exact. `minimize_cost`
  /// guards cross-path reuse (max-flow and min-cost flows differ).
  struct WarmCache {
    /// One cached component: its pair sequence and solved flows, stored as
    /// parallel slices [begin, begin + count) of the flat arrays below.
    struct Entry {
      int64_t begin = 0;
      int64_t count = 0;
    };
    bool valid = false;
    bool minimize_cost = false;
    /// Hash of everything network-defining that can vary across calls on
    /// one generator (the spacetime geometry the costs derive from); a
    /// mismatch drops the cache rather than risking stale flows.
    uint64_t fingerprint = 0;
    std::vector<Entry> entries;
    /// Flat per-pair payload, concatenated in cached-component order:
    /// worker type, task type, worker capacity, task capacity, solved flow.
    std::vector<TypeId> pair_wt;
    std::vector<TypeId> pair_tt;
    std::vector<int64_t> pair_wcap;
    std::vector<int64_t> pair_tcap;
    std::vector<int64_t> pair_flow;
    /// Content hash -> indices into `entries` (a vector to survive the
    /// astronomically-unlikely hash collision; membership is always
    /// confirmed by full sequence comparison).
    std::unordered_map<uint64_t, std::vector<int32_t>> by_hash;
  };

  /// Lazily grown per-shard arenas; index 0 also serves the serial paths.
  ShardArena& ShardAt(size_t index) const;
  /// Lazily created worker pool (only when options_.num_threads > 1).
  ThreadPool& Pool() const;

  double velocity_;
  GuideOptions options_;

  // Reusable solver arenas (see class comment). Mutable: reusing scratch
  // does not change the observable result of the logically-const Generate.
  mutable std::vector<std::unique_ptr<ShardArena>> shards_;
  mutable std::unique_ptr<ThreadPool> pool_;
  mutable int32_t last_num_components_ = 0;
  mutable ApproxGuideReport last_approx_report_;
  mutable GuideRefreshStats last_refresh_stats_;
  mutable WarmCache warm_cache_;
};

template <typename Fn>
void GuideGenerator::ForEachFeasibleTypePair(
    const PredictionMatrix& prediction, Fn&& fn) const {
  const SpacetimeSpec& st = prediction.spacetime();
  const GridSpec& grid = st.grid();
  const SlotSpec& slots = st.slots();
  const int num_areas = st.num_areas();
  const double dw = options_.worker_duration;
  const double dr = options_.task_duration;
  const double rep_slack = options_.representative_slack;

  // Per-slot list of cells with predicted tasks, for sparse iteration when
  // the feasibility disk covers most of the grid.
  std::vector<std::vector<CellId>> task_cells_by_slot(
      static_cast<size_t>(slots.num_slots()));
  for (int slot = 0; slot < slots.num_slots(); ++slot) {
    for (CellId cell = 0; cell < num_areas; ++cell) {
      if (prediction.tasks_at(st.TypeAt(slot, cell)) > 0) {
        task_cells_by_slot[static_cast<size_t>(slot)].push_back(cell);
      }
    }
  }

  for (int wslot = 0; wslot < slots.num_slots(); ++wslot) {
    const double sw = slots.SlotMidpoint(wslot);
    // Candidate task slots: representatives must satisfy
    //   sr < sw + dw (+ slack)  and  dr - (sw - sr) (+ slack) >= 0.
    const int slot_lo = std::max(
        0, slots.SlotOf(std::max(0.0, sw - dr - rep_slack)) - 1);
    const int slot_hi = std::min(slots.num_slots() - 1,
                                 slots.SlotOf(sw + dw + rep_slack) + 1);

    for (CellId wcell = 0; wcell < num_areas; ++wcell) {
      const TypeId wtype = st.TypeAt(wslot, wcell);
      if (prediction.workers_at(wtype) <= 0) continue;
      const Point wloc = grid.CellCenter(wcell);

      for (int tslot = slot_lo; tslot <= slot_hi; ++tslot) {
        const double sr = slots.SlotMidpoint(tslot);
        if (!(sr < sw + dw + rep_slack)) continue;
        const double slack = dr - (sw - sr) + rep_slack;
        if (slack < 0.0) continue;
        const double radius = slack * velocity_;

        // Choose between scanning the bounding box of the feasibility disk
        // and scanning the slot's nonempty task cells, whichever is smaller.
        // std::floor before the int cast so each bound is the disk edge's
        // true cell index even when (wloc - radius) is negative. With the
        // current clamps the cast alone happens to agree (trunc and floor
        // differ only below zero, where max(0, ...) erases the difference),
        // but that equivalence is incidental — floor states the intended
        // semantics instead of relying on it.
        const int cx_lo = std::max(
            0, static_cast<int>(
                   std::floor((wloc.x - radius) / grid.cell_width())));
        const int cx_hi = std::min(
            grid.cells_x() - 1,
            static_cast<int>(
                std::floor((wloc.x + radius) / grid.cell_width())));
        const int cy_lo = std::max(
            0, static_cast<int>(
                   std::floor((wloc.y - radius) / grid.cell_height())));
        const int cy_hi = std::min(
            grid.cells_y() - 1,
            static_cast<int>(
                std::floor((wloc.y + radius) / grid.cell_height())));
        const int64_t box_cells = static_cast<int64_t>(cx_hi - cx_lo + 1) *
                                  (cy_hi - cy_lo + 1);
        const auto& sparse = task_cells_by_slot[static_cast<size_t>(tslot)];

        auto consider = [&](CellId tcell) {
          const TypeId ttype = st.TypeAt(tslot, tcell);
          if (prediction.tasks_at(ttype) <= 0) return;
          const double d = Distance(wloc, grid.CellCenter(tcell));
          if (d / velocity_ <= slack) fn(wtype, ttype);
        };

        if (box_cells <= static_cast<int64_t>(sparse.size())) {
          for (int cy = cy_lo; cy <= cy_hi; ++cy) {
            for (int cx = cx_lo; cx <= cx_hi; ++cx) {
              consider(grid.CellAt(cx, cy));
            }
          }
        } else {
          for (CellId tcell : sparse) consider(tcell);
        }
      }
    }
  }
}

}  // namespace ftoa

#endif  // FTOA_CORE_GUIDE_GENERATOR_H_
