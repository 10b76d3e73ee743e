// Minimum-cost maximum-flow with selectable solver cores (FlowEngine).
//
// The classic path (`Solve(s, t)`, engine kSsp) runs successive shortest
// paths: Dijkstra over Johnson-reduced costs with a binary heap. Node
// potentials pi(v) are maintained across augmentations so every residual
// arc keeps a non-negative reduced cost
//
//     rc(u -> v) = cost(u -> v) + pi(u) - pi(v) >= 0,        (invariant)
//
// which is what makes Dijkstra admissible on a residual network that
// contains negative reverse arcs. Edge costs must be non-negative (they are
// travel times here, paper Section 4 note (2)), so the initial potential is
// identically zero and no Bellman-Ford bootstrap is needed. After each
// Dijkstra round the potentials are advanced by the capped, shifted
// distance pi(v) += min(dist(v), dist(t)) - dist(t) for every node the
// search labelled. This is the standard capped update written so that
// unlabelled nodes — whose conceptual term min(inf, dist(t)) - dist(t) is
// zero — need no write, which keeps the update O(|touched|) despite the
// early exit when t settles; the uniform -dist(t) shift leaves every
// reduced cost unchanged. See the case analysis at the update site.
//
// `Solve(s, t, engine)` selects among the registered cores
// (flow/flow_engine.h):
//  * kSsp          — the path above; one Dijkstra per augmentation.
//  * kBlockingSsp  — the same Dijkstra phase, but settling the whole
//                    dist <= dist(t) cone, then pushing a *blocking flow*
//                    over the admissible (reduced-cost-zero) subgraph, so
//                    one search feeds many augmenting paths. On
//                    unit-capacity bipartite networks this is the
//                    Hopcroft-Karp regime: O(sqrt(E)) phases.
//  * kCostScaling  — max flow first (Dinic on capacities), then
//                    Goldberg-Tarjan eps-scaling push-relabel refine on
//                    costs scaled by (n + 1): each round saturates every
//                    negative-reduced-cost arc and discharges node
//                    excesses FIFO until the pseudoflow is a circulation
//                    again; eps < 1 on scaled costs certifies exact
//                    optimality. Cost depends on network size, not flow
//                    value. Falls back to kBlockingSsp when the scaled
//                    cost range could overflow (see
//                    cost_scaling_fallbacks()).
//  * kAuto         — ChooseFlowEngine(ComputeShape(s)), a pure function of
//                    the instance shape (measured crossovers).
// Every engine produces an exact min-cost maximum flow and the same
// (flow, cost) outcome; equally-optimal per-edge flow patterns may differ
// between engines, so reproducibility-sensitive callers fix the engine
// (kAuto is deterministic for a fixed network).
//
// Overflow discipline: all label arithmetic (distances, potentials,
// reduced costs) saturates into [-kInfCost, kInfCost] via SatAddCost
// (min_cost_flow.cc) instead of wrapping, so adversarial cost ranges near
// int64 limits degrade to "unreachable" labels rather than undefined
// behavior. Exact *cost accounting* still requires path costs below
// kInfCost; the saturation guarantees the flow routing and termination
// stay correct beyond that.
//
// Reuse contract: the solver owns all scratch buffers (distance labels,
// parent edges, heap storage, visit stamps, level/cursor arrays, prices).
// `Reset()` rewinds the graph for a new instance while keeping every
// allocation, and `ReserveEdges()` pre-sizes the edge arena, so
// steady-state use performs zero heap allocations per Solve.
//
// Warm-start contract: residual state persists across calls, so `Solve` is
// resumable — callers may inject a known feasible flow with `PushFlow`
// (e.g. a matching carried over from a previous batch) or append edges with
// `AddEdge` and call `Solve` again; only the *additional* flow is computed.
// Any operation that can break the potentials invariant (injected flow
// whose reverse arc goes reduced-cost-negative, an appended edge that is
// cheaper than the current potential gap, or a kCostScaling solve, which
// does not maintain potentials) flags the instance; the next
// potential-based Solve then first cancels any negative residual cycles —
// re-routing the already-carried flow so it is again
// min-cost for its value, which is what successive shortest paths require —
// and rebuilds the potentials with one label-correcting pass before
// resuming Dijkstra. The final state is therefore a true min-cost maximum
// flow no matter how the warm start was produced. Because cancellation (and
// a kCostScaling refine) can silently cheapen flow routed by *earlier*
// calls, a resumed call's Outcome counts only its own contribution; use
// `TotalRoutedCost()` for whole-network cost claims.
//
// Intra-solve parallelism: `SetParallelism` lends the solver a thread pool
// for the read-only scan halves of its phases — the blocking engine's
// admissible-BFS frontier expansion and the cost-scaling refine's
// saturation detection. Both shard a scan across threads and merge through
// an order-insensitive reduction (set-once level writes; integer sums), so
// the solved flow is bit-identical at any thread count. The pool must not
// be one whose workers are currently executing this Solve (tasks block on
// futures; see core/guide_generator for the safe wiring).
//
// The original SPFA-per-augmenting-path solver, which every engine is
// checked against, is a test oracle (tests/flow/reference_min_cost_flow.h).

#ifndef FTOA_FLOW_MIN_COST_FLOW_H_
#define FTOA_FLOW_MIN_COST_FLOW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "flow/flow_engine.h"

namespace ftoa {

class ThreadPool;

/// A directed network with capacities and per-unit costs. Not thread-safe:
/// the scratch arenas are owned by the object.
class MinCostFlowGraph {
 public:
  explicit MinCostFlowGraph(int32_t num_nodes = 0);

  /// Rewinds to an empty graph with `num_nodes` nodes, keeping all buffer
  /// capacity (edge arena, heap, labels) from previous instances.
  void Reset(int32_t num_nodes);

  /// Pre-sizes the edge arena for `num_edges` forward edges.
  void ReserveEdges(size_t num_edges);

  /// Appends one node (for incremental graph growth); returns its id.
  int32_t AddNode();

  /// Adds edge u -> v with capacity `cap` >= 0 and per-unit cost
  /// `cost` >= 0. Returns the forward edge id (residual partner at id ^ 1).
  int32_t AddEdge(int32_t u, int32_t v, int64_t cap, int64_t cost);

  /// Result of a min-cost max-flow computation.
  struct Outcome {
    int64_t flow = 0;
    int64_t cost = 0;
  };

  /// Sends as much flow as possible from s to t, minimizing total cost
  /// among maximum flows; Dijkstra with potentials (engine kSsp).
  /// Resumable: retains residual state and potentials, and returns only the
  /// flow/cost *added by this call*.
  Outcome Solve(int32_t s, int32_t t);

  /// Same contract, with an explicit solver core. kAuto resolves through
  /// ChooseFlowEngine(ComputeShape(s)) before solving.
  Outcome Solve(int32_t s, int32_t t, FlowEngine engine);

  /// The kAuto selection inputs, measured from the current residual
  /// network: node/edge counts, residual supply out of `s`, and the
  /// original-capacity profile (unit-capacity edge share).
  FlowInstanceShape ComputeShape(int32_t s) const;

  /// Lends a pool for the intra-solve parallel scans (see file comment).
  /// `num_threads` caps the shards per scan; `min_parallel_items` is the
  /// scan size below which the serial path runs regardless (tests lower it
  /// to force the parallel path on small graphs). Pass pool == nullptr to
  /// return to fully serial solving.
  void SetParallelism(ThreadPool* pool, int num_threads,
                      int64_t min_parallel_items = 4096);

  /// Warm start: moves `amount` units of capacity from forward edge `e` to
  /// its reverse, declaring that flow as already routed. The caller asserts
  /// the combined pushes form a feasible s-t flow (conservation at interior
  /// nodes); costs of injected flow are not accumulated into any Outcome.
  void PushFlow(int32_t e, int64_t amount);

  /// Flow carried by forward edge `e`.
  int64_t Flow(int32_t e) const { return cap_[static_cast<size_t>(e ^ 1)]; }

  /// Total cost of the flow currently routed in the network,
  /// sum over forward edges of Flow(e) * EdgeCost(e). This is the
  /// authoritative cost after warm starts (see the warm-start contract).
  int64_t TotalRoutedCost() const;

  /// Per-unit cost of forward edge `e`.
  int64_t EdgeCost(int32_t e) const { return cost_[static_cast<size_t>(e)]; }

  int32_t num_nodes() const { return static_cast<int32_t>(head_.size()); }
  /// Number of forward edges.
  size_t num_edges() const { return to_.size() / 2; }

  /// Number of shortest-path computations run so far (instrumentation for
  /// benches and tests). A blocking phase counts as one search.
  int64_t path_searches() const { return path_searches_; }

  /// Blocking phases run by kBlockingSsp so far (instrumentation; each
  /// phase is one Dijkstra settle plus one or more blocking flows).
  int64_t blocking_phases() const { return blocking_phases_; }

  /// Refine rounds run by kCostScaling so far (instrumentation).
  int64_t refine_rounds() const { return refine_rounds_; }

  /// Times kCostScaling fell back to kBlockingSsp because the scaled cost
  /// range could overflow int64 (instrumentation; see file comment).
  int64_t cost_scaling_fallbacks() const { return cost_scaling_fallbacks_; }

 private:
  int64_t ReducedCost(int32_t e) const;
  /// Bellman-Ford negative-cycle detection + cancellation: re-routes the
  /// carried flow until the residual network has no negative cycle, i.e.
  /// the flow is min-cost for its value. O(V * E) per cancelled cycle;
  /// only runs on warm starts that actually broke optimality.
  void CancelNegativeCycles();
  /// Label-correcting fixpoint that lowers potentials until every residual
  /// arc has non-negative reduced cost; requires no negative cycles.
  void RepairPotentials(int32_t s);
  /// Re-establishes the potentials invariant if a warm start broke it.
  void RepairIfNeeded(int32_t s);
  /// Dijkstra over reduced costs; returns true when t was reached and
  /// leaves dist_/in_edge_ describing the shortest-path tree.
  bool DijkstraOnce(int32_t s, int32_t t);

  // --- kBlockingSsp internals.
  Outcome SolveBlocking(int32_t s, int32_t t);
  /// Dijkstra that settles every node with dist <= dist(t) (no early exit
  /// at t) and skips labels beyond dist(t); true when t was reached.
  bool DijkstraSettle(int32_t s, int32_t t);
  /// BFS levels from s over usable arcs (cap > 0, plus rc == 0 when
  /// `admissible` — the post-update shortest-path subgraph); true when t
  /// was levelled. Parallelizes frontier expansion when a pool is lent.
  bool BuildLevels(int32_t s, int32_t t, bool admissible);
  /// One blocking flow over the level graph (iterative DFS with per-node
  /// arc cursors); returns the flow pushed.
  int64_t BlockingAugment(int32_t s, int32_t t, bool admissible);

  // --- kCostScaling internals.
  Outcome SolveCostScaling(int32_t s, int32_t t);
  /// Dinic max flow on capacities only (costs ignored); flow added.
  int64_t MaxFlowDinic(int32_t s, int32_t t);
  /// One eps-scaling round: saturate every negative-reduced-cost residual
  /// arc (parallel detection when a pool is lent), then FIFO push-relabel
  /// discharge until all excesses return to zero.
  void Refine(int64_t eps, int64_t scale);

  // Graph arenas (edge e's residual partner is e ^ 1).
  std::vector<int32_t> head_;
  std::vector<int32_t> next_;
  std::vector<int32_t> to_;
  std::vector<int64_t> cap_;
  std::vector<int64_t> cost_;

  // Potentials and per-solve scratch, all reused across calls.
  std::vector<int64_t> potential_;
  std::vector<int64_t> dist_;
  std::vector<int32_t> in_edge_;
  std::vector<int32_t> stamp_;    // dist_/in_edge_ valid iff == round_.
  std::vector<int32_t> touched_;  // Nodes labelled in the current round.
  int32_t round_ = 0;
  struct HeapEntry {
    int64_t dist;
    int32_t node;
    bool operator<(const HeapEntry& other) const {
      return dist > other.dist;  // Min-heap via std::push_heap.
    }
  };
  std::vector<HeapEntry> heap_;
  // Label-correcting scratch (potential repair).
  std::vector<uint8_t> in_queue_;
  std::vector<int32_t> queue_;
  // Blocking/Dinic scratch: BFS levels, per-node arc cursors, DFS path.
  std::vector<int32_t> level_;
  std::vector<int32_t> cur_;
  std::vector<int32_t> path_;
  std::vector<int32_t> frontier_;
  std::vector<int32_t> next_frontier_;
  // Cost-scaling scratch: prices and node excesses.
  std::vector<int64_t> price_;
  std::vector<int64_t> excess_;
  std::vector<int32_t> saturate_;  // Arc ids detected by the refine scan.
  // Per-shard result buffers for the parallel scans. Shards are contiguous
  // in-order partitions, so concatenating the buffers in shard order
  // reproduces the serial scan order exactly (the determinism argument).
  std::vector<std::vector<int32_t>> shard_buffers_;

  // Lent parallelism (never owned); see SetParallelism.
  ThreadPool* pool_ = nullptr;
  int pool_threads_ = 1;
  int64_t min_parallel_items_ = 4096;

  bool needs_repair_ = false;
  int64_t path_searches_ = 0;
  int64_t blocking_phases_ = 0;
  int64_t refine_rounds_ = 0;
  int64_t cost_scaling_fallbacks_ = 0;
};

}  // namespace ftoa

#endif  // FTOA_FLOW_MIN_COST_FLOW_H_
