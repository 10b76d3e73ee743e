#include "flow/min_cost_flow.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <limits>
#include <vector>

#include "util/thread_pool.h"

namespace ftoa {

namespace {
constexpr int64_t kInf = std::numeric_limits<int64_t>::max() / 4;

/// Saturating add: clamps into [-kInf, kInf] instead of wrapping. Label
/// arithmetic (`dist + reduced cost`, `potential + cost`) must go through
/// this: a kInf-seeded label plus an adversarial near-limit cost exceeds
/// kInf *before* any `>= kInf` unreachability check and is signed-overflow
/// UB with plain +. Saturation keeps such labels pinned at the "effectively
/// unreachable" rail, so routing decisions and termination stay correct;
/// only the (already meaningless) cost accounting degrades out there.
int64_t SatAdd(int64_t a, int64_t b) {
  int64_t sum;
  if (__builtin_add_overflow(a, b, &sum)) return b > 0 ? kInf : -kInf;
  return std::clamp<int64_t>(sum, -kInf, kInf);
}
}  // namespace

MinCostFlowGraph::MinCostFlowGraph(int32_t num_nodes) { Reset(num_nodes); }

void MinCostFlowGraph::Reset(int32_t num_nodes) {
  head_.assign(static_cast<size_t>(num_nodes), -1);
  next_.clear();
  to_.clear();
  cap_.clear();
  cost_.clear();
  potential_.assign(static_cast<size_t>(num_nodes), 0);
  stamp_.assign(static_cast<size_t>(num_nodes), 0);
  round_ = 0;
  needs_repair_ = false;
  // dist_/in_edge_ are stamped, heap_/touched_/queue_ cleared per use; they
  // only ever need to be at least num_nodes long. level_/cur_ are sized
  // lazily at engine entry and guarded by stamps/fills per use.
  if (dist_.size() < static_cast<size_t>(num_nodes)) {
    dist_.resize(static_cast<size_t>(num_nodes));
    in_edge_.resize(static_cast<size_t>(num_nodes));
  }
}

void MinCostFlowGraph::ReserveEdges(size_t num_edges) {
  to_.reserve(num_edges * 2);
  cap_.reserve(num_edges * 2);
  cost_.reserve(num_edges * 2);
  next_.reserve(num_edges * 2);
}

int32_t MinCostFlowGraph::AddNode() {
  const int32_t id = num_nodes();
  head_.push_back(-1);
  potential_.push_back(0);
  stamp_.push_back(0);
  if (dist_.size() < head_.size()) {
    dist_.push_back(0);
    in_edge_.push_back(-1);
  }
  return id;
}

int64_t MinCostFlowGraph::ReducedCost(int32_t e) const {
  const int32_t u = to_[static_cast<size_t>(e ^ 1)];
  const int32_t v = to_[static_cast<size_t>(e)];
  // Potentials live in [-kInf, 0] (they start at zero and only ever
  // decrease through SatAdd), so the negation is safe and the nested
  // saturating adds clamp instead of wrapping on near-limit costs.
  return SatAdd(SatAdd(cost_[static_cast<size_t>(e)],
                       potential_[static_cast<size_t>(u)]),
                -potential_[static_cast<size_t>(v)]);
}

int32_t MinCostFlowGraph::AddEdge(int32_t u, int32_t v, int64_t cap,
                                  int64_t cost) {
  assert(u >= 0 && u < num_nodes());
  assert(v >= 0 && v < num_nodes());
  assert(cap >= 0);
  assert(cost >= 0);
  // Arc ids are int32 (`e ^ 1` pairing); a city-scale caller overflowing
  // them must die at the boundary instead of silently wrapping ids.
  if (to_.size() >=
      static_cast<size_t>(std::numeric_limits<int32_t>::max()) - 1) {
    std::fprintf(stderr,
                 "MinCostFlowGraph: edge count would exceed int32 arc ids "
                 "(%zu arcs)\n",
                 to_.size());
    std::abort();
  }
  const int32_t forward = static_cast<int32_t>(to_.size());
  to_.push_back(v);
  cap_.push_back(cap);
  cost_.push_back(cost);
  next_.push_back(head_[static_cast<size_t>(u)]);
  head_[static_cast<size_t>(u)] = forward;

  to_.push_back(u);
  cap_.push_back(0);
  cost_.push_back(-cost);
  next_.push_back(head_[static_cast<size_t>(v)]);
  head_[static_cast<size_t>(v)] = forward + 1;

  // An edge appended after earlier Solve rounds can undercut the current
  // potential gap; flag for repair instead of re-running Bellman-Ford now.
  if (cap > 0 && ReducedCost(forward) < 0) needs_repair_ = true;
  return forward;
}

void MinCostFlowGraph::PushFlow(int32_t e, int64_t amount) {
  assert(e >= 0 && static_cast<size_t>(e) < to_.size());
  assert(amount >= 0 && amount <= cap_[static_cast<size_t>(e)]);
  cap_[static_cast<size_t>(e)] -= amount;
  cap_[static_cast<size_t>(e ^ 1)] += amount;
  if (cap_[static_cast<size_t>(e ^ 1)] > 0 && ReducedCost(e ^ 1) < 0) {
    needs_repair_ = true;
  }
}

int64_t MinCostFlowGraph::TotalRoutedCost() const {
  int64_t total = 0;
  for (size_t e = 0; e < to_.size(); e += 2) {
    total += Flow(static_cast<int32_t>(e)) * cost_[e];
  }
  return total;
}

FlowInstanceShape MinCostFlowGraph::ComputeShape(int32_t s) const {
  FlowInstanceShape shape;
  shape.num_nodes = num_nodes();
  shape.num_edges = static_cast<int64_t>(num_edges());
  std::vector<int64_t> costs;
  costs.reserve(num_edges());
  for (size_t e = 0; e < to_.size(); e += 2) {
    // cap(e) + cap(e^1) is the original capacity, invariant under any flow
    // already routed, so the shape is stable across warm starts.
    const int64_t original = cap_[e] + cap_[e ^ 1];
    shape.max_capacity = std::max(shape.max_capacity, original);
    if (original == 1) ++shape.unit_capacity_edges;
    costs.push_back(cost_[e]);
  }
  // Distinct cost values — the tie-density signal ChooseFlowEngine uses to
  // decide whether blocking phases can amortize (many flow units per cost
  // class) or would degrade to one augmentation per settle.
  std::sort(costs.begin(), costs.end());
  shape.cost_classes = static_cast<int64_t>(
      std::unique(costs.begin(), costs.end()) - costs.begin());
  if (s >= 0 && s < num_nodes()) {
    for (int32_t e = head_[static_cast<size_t>(s)]; e != -1;
         e = next_[static_cast<size_t>(e)]) {
      if (cap_[static_cast<size_t>(e)] > 0) {
        shape.supply += cap_[static_cast<size_t>(e)];
      }
    }
  }
  return shape;
}

void MinCostFlowGraph::SetParallelism(ThreadPool* pool, int num_threads,
                                      int64_t min_parallel_items) {
  pool_ = pool;
  pool_threads_ = pool == nullptr ? 1 : std::max(1, num_threads);
  min_parallel_items_ = std::max<int64_t>(1, min_parallel_items);
}

void MinCostFlowGraph::CancelNegativeCycles() {
  const int32_t n = num_nodes();
  if (n == 0) return;
  while (true) {
    // Bellman-Ford from a virtual source attached to every node with a
    // zero-cost arc: dist starts at zero everywhere, so any node that still
    // relaxes after n full passes sits on (or hangs off) a negative cycle.
    std::fill(dist_.begin(), dist_.begin() + n, 0);
    std::fill(in_edge_.begin(), in_edge_.begin() + n, -1);
    int32_t relaxed = -1;
    for (int32_t round = 0; round < n; ++round) {
      relaxed = -1;
      for (size_t e = 0; e < to_.size(); ++e) {
        if (cap_[e] <= 0) continue;
        const int32_t u = to_[e ^ 1];
        const int32_t v = to_[e];
        const int64_t candidate =
            SatAdd(dist_[static_cast<size_t>(u)], cost_[e]);
        if (candidate < dist_[static_cast<size_t>(v)]) {
          dist_[static_cast<size_t>(v)] = candidate;
          in_edge_[static_cast<size_t>(v)] = static_cast<int32_t>(e);
          relaxed = v;
        }
      }
      if (relaxed < 0) return;  // Converged: no negative cycle remains.
    }
    // Walk n parent steps from the last relaxed node to land on the cycle,
    // then cancel it with its bottleneck capacity.
    int32_t x = relaxed;
    for (int32_t i = 0; i < n; ++i) {
      x = to_[static_cast<size_t>(in_edge_[static_cast<size_t>(x)] ^ 1)];
    }
    int64_t bottleneck = kInf;
    int32_t v = x;
    do {
      const int32_t e = in_edge_[static_cast<size_t>(v)];
      bottleneck = std::min(bottleneck, cap_[static_cast<size_t>(e)]);
      v = to_[static_cast<size_t>(e ^ 1)];
    } while (v != x);
    v = x;
    do {
      const int32_t e = in_edge_[static_cast<size_t>(v)];
      cap_[static_cast<size_t>(e)] -= bottleneck;
      cap_[static_cast<size_t>(e ^ 1)] += bottleneck;
      v = to_[static_cast<size_t>(e ^ 1)];
    } while (v != x);
  }
}

void MinCostFlowGraph::RepairPotentials(int32_t /*s*/) {
  // Label-correcting fixpoint: lower potentials until every residual arc has
  // a non-negative reduced cost again. Starting from the current (almost
  // feasible) potentials this touches few nodes; it terminates because the
  // residual graph of a feasible flow built from non-negative-cost edges by
  // shortest-path augmentation or a cost-feasible warm start has no negative
  // cycle.
  queue_.clear();
  in_queue_.assign(head_.size(), 0);
  for (int32_t u = 0; u < num_nodes(); ++u) {
    queue_.push_back(u);
    in_queue_[static_cast<size_t>(u)] = 1;
  }
  const int64_t pop_limit = (static_cast<int64_t>(head_.size()) + 1) *
                            (static_cast<int64_t>(to_.size()) + 1);
  int64_t pops = 0;
  for (size_t qi = 0; qi < queue_.size(); ++qi) {
    const int32_t u = queue_[qi];
    in_queue_[static_cast<size_t>(u)] = 0;
    ++pops;
    assert(pops <= pop_limit && "negative cycle in residual network");
    if (pops > pop_limit) return;  // Defense in depth for NDEBUG builds.
    for (int32_t e = head_[static_cast<size_t>(u)]; e != -1;
         e = next_[static_cast<size_t>(e)]) {
      if (cap_[static_cast<size_t>(e)] <= 0) continue;
      const int32_t v = to_[static_cast<size_t>(e)];
      const int64_t candidate = SatAdd(potential_[static_cast<size_t>(u)],
                                       cost_[static_cast<size_t>(e)]);
      if (candidate < potential_[static_cast<size_t>(v)]) {
        potential_[static_cast<size_t>(v)] = candidate;
        if (!in_queue_[static_cast<size_t>(v)]) {
          in_queue_[static_cast<size_t>(v)] = 1;
          queue_.push_back(v);
        }
      }
    }
  }
}

void MinCostFlowGraph::RepairIfNeeded(int32_t s) {
  if (!needs_repair_) return;
  CancelNegativeCycles();
  RepairPotentials(s);
  needs_repair_ = false;
}

bool MinCostFlowGraph::DijkstraOnce(int32_t s, int32_t t) {
  ++round_;
  ++path_searches_;
  heap_.clear();
  touched_.clear();
  dist_[static_cast<size_t>(s)] = 0;
  in_edge_[static_cast<size_t>(s)] = -1;
  stamp_[static_cast<size_t>(s)] = round_;
  touched_.push_back(s);
  heap_.push_back(HeapEntry{0, s});
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end());
    const HeapEntry top = heap_.back();
    heap_.pop_back();
    const int32_t u = top.node;
    if (top.dist != dist_[static_cast<size_t>(u)]) continue;  // Stale entry.
    if (u == t) return true;  // All closer nodes are settled and relaxed.
    for (int32_t e = head_[static_cast<size_t>(u)]; e != -1;
         e = next_[static_cast<size_t>(e)]) {
      if (cap_[static_cast<size_t>(e)] <= 0) continue;
      const int32_t v = to_[static_cast<size_t>(e)];
      const int64_t raw_rc = ReducedCost(e);
      // Once potentials have saturated at -kInf (adversarial cost ranges
      // only), clamping can understate a reduced cost by the clamped slack;
      // a genuinely negative value on sane ranges is a logic bug.
      assert(raw_rc >= 0 || potential_[static_cast<size_t>(v)] <= -kInf);
      const int64_t rc = raw_rc < 0 ? 0 : raw_rc;
      const int64_t candidate = SatAdd(top.dist, rc);
      const bool fresh = stamp_[static_cast<size_t>(v)] != round_;
      if (fresh || candidate < dist_[static_cast<size_t>(v)]) {
        dist_[static_cast<size_t>(v)] = candidate;
        in_edge_[static_cast<size_t>(v)] = e;
        if (fresh) {
          stamp_[static_cast<size_t>(v)] = round_;
          touched_.push_back(v);
        }
        heap_.push_back(HeapEntry{candidate, v});
        std::push_heap(heap_.begin(), heap_.end());
      }
    }
  }
  return false;
}

MinCostFlowGraph::Outcome MinCostFlowGraph::Solve(int32_t s, int32_t t) {
  assert(s >= 0 && s < num_nodes());
  assert(t >= 0 && t < num_nodes());
  assert(s != t);
  RepairIfNeeded(s);
  Outcome outcome;
  while (DijkstraOnce(s, t)) {
    const int64_t dist_t = dist_[static_cast<size_t>(t)];
    const int64_t path_cost = dist_t + potential_[static_cast<size_t>(t)] -
                              potential_[static_cast<size_t>(s)];
    // Advance potentials by the capped distance, shifted by -dist(t) so
    // that *untouched* nodes (conceptually at distance infinity, capped to
    // dist(t)) need no write at all. The shift is uniform across the
    // conceptual all-nodes update, so reduced costs are unaffected by it.
    // Case check for a residual arc u -> v:
    //  * both touched: min-capped labels preserve rc >= 0 because a node
    //    with label < dist(t) is settled and has relaxed its arcs;
    //  * u touched, v untouched: then dist(u) >= dist(t) (a settled u
    //    would have labelled v), so u's term is zero — rc unchanged;
    //  * u untouched, v touched: v's term is <= 0, so rc only grows.
    for (const int32_t v : touched_) {
      potential_[static_cast<size_t>(v)] =
          SatAdd(potential_[static_cast<size_t>(v)],
                 std::min(dist_[static_cast<size_t>(v)], dist_t) - dist_t);
    }
    int64_t bottleneck = kInf;
    for (int32_t v = t; v != s;) {
      const int32_t e = in_edge_[static_cast<size_t>(v)];
      bottleneck = std::min(bottleneck, cap_[static_cast<size_t>(e)]);
      v = to_[static_cast<size_t>(e ^ 1)];
    }
    for (int32_t v = t; v != s;) {
      const int32_t e = in_edge_[static_cast<size_t>(v)];
      cap_[static_cast<size_t>(e)] -= bottleneck;
      cap_[static_cast<size_t>(e ^ 1)] += bottleneck;
      v = to_[static_cast<size_t>(e ^ 1)];
    }
    outcome.flow += bottleneck;
    outcome.cost += bottleneck * path_cost;
  }
  return outcome;
}

MinCostFlowGraph::Outcome MinCostFlowGraph::Solve(int32_t s, int32_t t,
                                                  FlowEngine engine) {
  if (engine == FlowEngine::kAuto) {
    engine = ChooseFlowEngine(ComputeShape(s));
  }
  switch (engine) {
    case FlowEngine::kSsp:
      return Solve(s, t);
    case FlowEngine::kBlockingSsp:
      return SolveBlocking(s, t);
    case FlowEngine::kCostScaling:
      return SolveCostScaling(s, t);
    case FlowEngine::kAuto:
      break;  // Resolved above; unreachable.
  }
  return Solve(s, t);
}

// ---------------------------------------------------------------------------
// kBlockingSsp: Dijkstra phases feeding blocking flows over the admissible
// subgraph.

bool MinCostFlowGraph::DijkstraSettle(int32_t s, int32_t t) {
  ++round_;
  ++path_searches_;
  heap_.clear();
  touched_.clear();
  dist_[static_cast<size_t>(s)] = 0;
  in_edge_[static_cast<size_t>(s)] = -1;
  stamp_[static_cast<size_t>(s)] = round_;
  touched_.push_back(s);
  heap_.push_back(HeapEntry{0, s});
  int64_t dist_t = kInf;
  bool reached = false;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end());
    const HeapEntry top = heap_.back();
    heap_.pop_back();
    const int32_t u = top.node;
    if (top.dist != dist_[static_cast<size_t>(u)]) continue;  // Stale entry.
    // Unlike DijkstraOnce there is no early exit at t: the whole
    // dist <= dist(t) cone gets settled so that *every* shortest path is
    // admissible after the potential update, not just one. Strictly-beyond
    // labels are useless for this phase, so stop there.
    if (top.dist > dist_t) break;
    if (u == t) {
      reached = true;
      dist_t = top.dist;
    }
    for (int32_t e = head_[static_cast<size_t>(u)]; e != -1;
         e = next_[static_cast<size_t>(e)]) {
      if (cap_[static_cast<size_t>(e)] <= 0) continue;
      const int32_t v = to_[static_cast<size_t>(e)];
      const int64_t raw_rc = ReducedCost(e);
      assert(raw_rc >= 0 || potential_[static_cast<size_t>(v)] <= -kInf);
      const int64_t rc = raw_rc < 0 ? 0 : raw_rc;
      const int64_t candidate = SatAdd(top.dist, rc);
      // Labels beyond dist(t) cannot sit on a shortest s-t path; skipping
      // them keeps the settle O(cone), and the potential update's case
      // analysis covers the skipped nodes (their conceptual term is zero).
      if (candidate > dist_t) continue;
      const bool fresh = stamp_[static_cast<size_t>(v)] != round_;
      if (fresh || candidate < dist_[static_cast<size_t>(v)]) {
        dist_[static_cast<size_t>(v)] = candidate;
        in_edge_[static_cast<size_t>(v)] = e;
        if (fresh) {
          stamp_[static_cast<size_t>(v)] = round_;
          touched_.push_back(v);
        }
        heap_.push_back(HeapEntry{candidate, v});
        std::push_heap(heap_.begin(), heap_.end());
      }
    }
  }
  return reached;
}

bool MinCostFlowGraph::BuildLevels(int32_t s, int32_t t, bool admissible) {
  const size_t n = head_.size();
  if (admissible) {
    // Admissible (rc == 0) arcs out of the settled cone do not exist — the
    // potential update leaves every arc leaving it strictly positive — so
    // the BFS can only visit nodes the settle touched; resetting just those
    // keeps the phase O(cone). Stale levels elsewhere are masked by the
    // stamp check below.
    for (const int32_t v : touched_) level_[static_cast<size_t>(v)] = -1;
  } else {
    std::fill(level_.begin(),
              level_.begin() + static_cast<ptrdiff_t>(n), -1);
  }
  frontier_.clear();
  level_[static_cast<size_t>(s)] = 0;
  cur_[static_cast<size_t>(s)] = head_[static_cast<size_t>(s)];
  frontier_.push_back(s);
  const auto usable = [this, admissible](int32_t e, int32_t v) {
    if (cap_[static_cast<size_t>(e)] <= 0) return false;
    if (!admissible) return true;
    return stamp_[static_cast<size_t>(v)] == round_ && ReducedCost(e) == 0;
  };
  int32_t depth = 0;
  while (!frontier_.empty() && level_[static_cast<size_t>(t)] < 0) {
    ++depth;
    next_frontier_.clear();
    const bool parallel =
        pool_ != nullptr && pool_threads_ > 1 &&
        static_cast<int64_t>(frontier_.size()) >= min_parallel_items_;
    if (parallel) {
      // Shard the frontier into contiguous in-order slices; each shard
      // *detects* candidate nodes read-only (level_ is frozen during the
      // scan), then one serial merge in shard order assigns levels.
      // Concatenating contiguous in-order shards reproduces the serial scan
      // order exactly, and level values are a pure function of the depth,
      // so the resulting level graph — and with it the solved flow — is
      // bit-identical at any thread count.
      const size_t shards = std::min<size_t>(
          static_cast<size_t>(pool_threads_), frontier_.size());
      if (shard_buffers_.size() < shards) shard_buffers_.resize(shards);
      const size_t chunk = (frontier_.size() + shards - 1) / shards;
      const auto scan = [this, &usable, chunk](size_t shard) {
        std::vector<int32_t>& buffer = shard_buffers_[shard];
        buffer.clear();
        const size_t begin = shard * chunk;
        const size_t end = std::min(begin + chunk, frontier_.size());
        for (size_t i = begin; i < end; ++i) {
          const int32_t u = frontier_[i];
          for (int32_t e = head_[static_cast<size_t>(u)]; e != -1;
               e = next_[static_cast<size_t>(e)]) {
            const int32_t v = to_[static_cast<size_t>(e)];
            if (usable(e, v) && level_[static_cast<size_t>(v)] < 0) {
              buffer.push_back(v);
            }
          }
        }
      };
      std::vector<std::future<void>> pending;
      pending.reserve(shards - 1);
      for (size_t shard = 1; shard < shards; ++shard) {
        pending.push_back(pool_->Submit([&scan, shard] { scan(shard); }));
      }
      scan(0);
      for (std::future<void>& f : pending) f.get();
      for (size_t shard = 0; shard < shards; ++shard) {
        for (const int32_t v : shard_buffers_[shard]) {
          if (level_[static_cast<size_t>(v)] < 0) {
            level_[static_cast<size_t>(v)] = depth;
            cur_[static_cast<size_t>(v)] = head_[static_cast<size_t>(v)];
            next_frontier_.push_back(v);
          }
        }
      }
    } else {
      for (const int32_t u : frontier_) {
        for (int32_t e = head_[static_cast<size_t>(u)]; e != -1;
             e = next_[static_cast<size_t>(e)]) {
          const int32_t v = to_[static_cast<size_t>(e)];
          if (usable(e, v) && level_[static_cast<size_t>(v)] < 0) {
            level_[static_cast<size_t>(v)] = depth;
            cur_[static_cast<size_t>(v)] = head_[static_cast<size_t>(v)];
            next_frontier_.push_back(v);
          }
        }
      }
    }
    frontier_.swap(next_frontier_);
  }
  return level_[static_cast<size_t>(t)] >= 0;
}

int64_t MinCostFlowGraph::BlockingAugment(int32_t s, int32_t t,
                                          bool admissible) {
  // Iterative DFS with per-node arc cursors (cur_): every arc is retired at
  // most once per blocking flow, so one call is O(V * paths + E).
  int64_t total = 0;
  path_.clear();
  int32_t u = s;
  while (true) {
    if (u == t) {
      int64_t bottleneck = kInf;
      for (const int32_t e : path_) {
        bottleneck = std::min(bottleneck, cap_[static_cast<size_t>(e)]);
      }
      for (const int32_t e : path_) {
        cap_[static_cast<size_t>(e)] -= bottleneck;
        cap_[static_cast<size_t>(e ^ 1)] += bottleneck;
      }
      total += bottleneck;
      // Retreat to just before the first saturated arc and keep going.
      size_t keep = 0;
      while (keep < path_.size() &&
             cap_[static_cast<size_t>(path_[keep])] > 0) {
        ++keep;
      }
      path_.resize(keep);
      u = path_.empty() ? s : to_[static_cast<size_t>(path_.back())];
      continue;
    }
    int32_t e = cur_[static_cast<size_t>(u)];
    while (e != -1) {
      const int32_t v = to_[static_cast<size_t>(e)];
      if (cap_[static_cast<size_t>(e)] > 0 &&
          (!admissible || (stamp_[static_cast<size_t>(v)] == round_ &&
                           ReducedCost(e) == 0)) &&
          level_[static_cast<size_t>(v)] ==
              level_[static_cast<size_t>(u)] + 1) {
        break;
      }
      e = next_[static_cast<size_t>(e)];
    }
    cur_[static_cast<size_t>(u)] = e;
    if (e == -1) {
      if (u == s) break;  // Source exhausted: the flow is blocking.
      // Dead end: retreat one arc and retire it in the parent's cursor so
      // the DFS never re-enters this exhausted node.
      const int32_t back = path_.back();
      path_.pop_back();
      const int32_t parent =
          path_.empty() ? s : to_[static_cast<size_t>(path_.back())];
      cur_[static_cast<size_t>(parent)] = next_[static_cast<size_t>(back)];
      u = parent;
    } else {
      path_.push_back(e);
      u = to_[static_cast<size_t>(e)];
    }
  }
  return total;
}

MinCostFlowGraph::Outcome MinCostFlowGraph::SolveBlocking(int32_t s,
                                                          int32_t t) {
  assert(s >= 0 && s < num_nodes());
  assert(t >= 0 && t < num_nodes());
  assert(s != t);
  RepairIfNeeded(s);
  if (level_.size() < head_.size()) {
    level_.resize(head_.size(), -1);
    cur_.resize(head_.size(), -1);
  }
  Outcome outcome;
  while (DijkstraSettle(s, t)) {
    ++blocking_phases_;
    const int64_t dist_t = dist_[static_cast<size_t>(t)];
    // Per-unit cost of every path in this phase, taken before the update
    // (equal to pi'(t) - pi'(s) afterwards).
    const int64_t path_cost = dist_t + potential_[static_cast<size_t>(t)] -
                              potential_[static_cast<size_t>(s)];
    // Same capped-shifted update (and case analysis) as Solve(); after it
    // every shortest-path arc has reduced cost exactly zero, so the
    // admissible subgraph carries *all* shortest s-t paths at once.
    for (const int32_t v : touched_) {
      potential_[static_cast<size_t>(v)] =
          SatAdd(potential_[static_cast<size_t>(v)],
                 std::min(dist_[static_cast<size_t>(v)], dist_t) - dist_t);
    }
    // Augmenting on zero-reduced-cost arcs exposes their (also
    // zero-reduced-cost) reverses, which can open further shortest paths of
    // the same per-unit cost, so the inner loop re-levels until t is
    // unreachable in the admissible subgraph — i.e. the phase flow is a max
    // flow of the shortest-path subnetwork (Dinic's bound: level(t)
    // strictly increases per iteration).
    int64_t phase_flow = 0;
    while (BuildLevels(s, t, /*admissible=*/true)) {
      const int64_t pushed = BlockingAugment(s, t, /*admissible=*/true);
      assert(pushed > 0);
      if (pushed <= 0) break;  // Defense in depth for NDEBUG builds.
      phase_flow += pushed;
      outcome.flow += pushed;
      outcome.cost += pushed * path_cost;
    }
    if (phase_flow == 0) {
      // Only reachable once labels have saturated at the ±kInf rails
      // (adversarial cost ranges): clamping slack can leave tree arcs with
      // rc != 0, emptying the admissible subgraph. Fall back to augmenting
      // the settle tree's t-path directly so the flow still reaches its
      // maximum and the outer loop keeps making progress.
      int64_t bottleneck = kInf;
      for (int32_t v = t; v != s;) {
        const int32_t e = in_edge_[static_cast<size_t>(v)];
        bottleneck = std::min(bottleneck, cap_[static_cast<size_t>(e)]);
        v = to_[static_cast<size_t>(e ^ 1)];
      }
      for (int32_t v = t; v != s;) {
        const int32_t e = in_edge_[static_cast<size_t>(v)];
        cap_[static_cast<size_t>(e)] -= bottleneck;
        cap_[static_cast<size_t>(e ^ 1)] += bottleneck;
        v = to_[static_cast<size_t>(e ^ 1)];
      }
      outcome.flow += bottleneck;
      outcome.cost += bottleneck * path_cost;
    }
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// kCostScaling: max flow first, then Goldberg-Tarjan eps-scaling refine.

int64_t MinCostFlowGraph::MaxFlowDinic(int32_t s, int32_t t) {
  int64_t total = 0;
  while (BuildLevels(s, t, /*admissible=*/false)) {
    total += BlockingAugment(s, t, /*admissible=*/false);
  }
  return total;
}

void MinCostFlowGraph::Refine(int64_t eps, int64_t scale) {
  ++refine_rounds_;
  const int32_t n = num_nodes();
  const auto scaled_rc = [this, scale](int32_t e) {
    const int32_t u = to_[static_cast<size_t>(e ^ 1)];
    const int32_t v = to_[static_cast<size_t>(e)];
    // In range by the caller's overflow budget: |cost * scale| and the
    // price bound both sit far below kInf (see SolveCostScaling).
    return cost_[static_cast<size_t>(e)] * scale +
           price_[static_cast<size_t>(u)] - price_[static_cast<size_t>(v)];
  };

  // Step 1: saturate every residual arc whose scaled reduced cost is
  // negative; afterwards every residual arc has rc >= 0 >= -eps, so the
  // pseudoflow is eps-optimal and only the node excesses are wrong.
  // Detection is read-only over frozen prices (an arc and its reverse are
  // never both negative, so applying one detected arc cannot change
  // another's detection) — shard it in contiguous in-order arc ranges and
  // apply serially in ascending arc order, which both equals the serial
  // single pass and is thread-count invariant.
  saturate_.clear();
  const int32_t arc_count = static_cast<int32_t>(to_.size());
  const bool parallel = pool_ != nullptr && pool_threads_ > 1 &&
                        static_cast<int64_t>(arc_count) >= min_parallel_items_;
  if (parallel) {
    const size_t shards = static_cast<size_t>(pool_threads_);
    if (shard_buffers_.size() < shards) shard_buffers_.resize(shards);
    const int32_t chunk =
        (arc_count + static_cast<int32_t>(shards) - 1) /
        static_cast<int32_t>(shards);
    const auto scan = [this, &scaled_rc, chunk, arc_count](size_t shard) {
      std::vector<int32_t>& buffer = shard_buffers_[shard];
      buffer.clear();
      const int32_t begin = static_cast<int32_t>(shard) * chunk;
      const int32_t end = std::min(begin + chunk, arc_count);
      for (int32_t e = begin; e < end; ++e) {
        if (cap_[static_cast<size_t>(e)] > 0 && scaled_rc(e) < 0) {
          buffer.push_back(e);
        }
      }
    };
    std::vector<std::future<void>> pending;
    pending.reserve(shards - 1);
    for (size_t shard = 1; shard < shards; ++shard) {
      pending.push_back(pool_->Submit([&scan, shard] { scan(shard); }));
    }
    scan(0);
    for (std::future<void>& f : pending) f.get();
    for (size_t shard = 0; shard < shards; ++shard) {
      saturate_.insert(saturate_.end(), shard_buffers_[shard].begin(),
                       shard_buffers_[shard].end());
    }
  } else {
    for (int32_t e = 0; e < arc_count; ++e) {
      if (cap_[static_cast<size_t>(e)] > 0 && scaled_rc(e) < 0) {
        saturate_.push_back(e);
      }
    }
  }
  for (const int32_t e : saturate_) {
    const int32_t u = to_[static_cast<size_t>(e ^ 1)];
    const int32_t v = to_[static_cast<size_t>(e)];
    const int64_t c = cap_[static_cast<size_t>(e)];
    cap_[static_cast<size_t>(e)] = 0;
    cap_[static_cast<size_t>(e ^ 1)] += c;
    excess_[static_cast<size_t>(u)] -= c;
    excess_[static_cast<size_t>(v)] += c;
  }

  // Step 2: FIFO push-relabel discharge. excess_ tracks divergence
  // *changes* (it starts and ends all-zero), so s and t need no special
  // casing and the flow value is preserved exactly. Pushes go over
  // admissible (rc < 0) arcs; an exhausted node is relabelled to the
  // highest price that re-admits an arc, minus eps — prices only fall,
  // which bounds the work (Goldberg-Tarjan).
  queue_.clear();
  in_queue_.assign(head_.size(), 0);
  for (int32_t u = 0; u < n; ++u) {
    if (excess_[static_cast<size_t>(u)] > 0) {
      queue_.push_back(u);
      in_queue_[static_cast<size_t>(u)] = 1;
      cur_[static_cast<size_t>(u)] = head_[static_cast<size_t>(u)];
    }
  }
  size_t qhead = 0;
  while (qhead < queue_.size()) {
    const int32_t u = queue_[qhead++];
    if (qhead >= 4096 && qhead * 2 >= queue_.size()) {
      // Compact the drained prefix so the FIFO stays bounded by the live
      // set instead of the total number of activations.
      queue_.erase(queue_.begin(), queue_.begin() + static_cast<ptrdiff_t>(qhead));
      qhead = 0;
    }
    in_queue_[static_cast<size_t>(u)] = 0;
    while (excess_[static_cast<size_t>(u)] > 0) {
      int32_t e = cur_[static_cast<size_t>(u)];
      while (e != -1) {
        if (cap_[static_cast<size_t>(e)] > 0 && scaled_rc(e) < 0) break;
        e = next_[static_cast<size_t>(e)];
      }
      cur_[static_cast<size_t>(u)] = e;
      if (e == -1) {
        // Relabel: a node with positive excess always has a residual arc
        // (its excess can reach a deficit through the residual network of
        // the underlying feasible flow).
        int64_t best = 0;
        bool has_residual = false;
        for (int32_t e2 = head_[static_cast<size_t>(u)]; e2 != -1;
             e2 = next_[static_cast<size_t>(e2)]) {
          if (cap_[static_cast<size_t>(e2)] <= 0) continue;
          const int64_t candidate =
              price_[static_cast<size_t>(to_[static_cast<size_t>(e2)])] -
              cost_[static_cast<size_t>(e2)] * scale;
          if (!has_residual || candidate > best) {
            best = candidate;
            has_residual = true;
          }
        }
        assert(has_residual && "stranded excess in cost-scaling refine");
        if (!has_residual) break;  // Defense in depth for NDEBUG builds.
        price_[static_cast<size_t>(u)] = best - eps;
        cur_[static_cast<size_t>(u)] = head_[static_cast<size_t>(u)];
        continue;
      }
      const int32_t v = to_[static_cast<size_t>(e)];
      const int64_t amount =
          std::min(excess_[static_cast<size_t>(u)],
                   cap_[static_cast<size_t>(e)]);
      cap_[static_cast<size_t>(e)] -= amount;
      cap_[static_cast<size_t>(e ^ 1)] += amount;
      excess_[static_cast<size_t>(u)] -= amount;
      excess_[static_cast<size_t>(v)] += amount;
      if (excess_[static_cast<size_t>(v)] > 0 &&
          !in_queue_[static_cast<size_t>(v)]) {
        in_queue_[static_cast<size_t>(v)] = 1;
        queue_.push_back(v);
        cur_[static_cast<size_t>(v)] = head_[static_cast<size_t>(v)];
      }
    }
  }
}

MinCostFlowGraph::Outcome MinCostFlowGraph::SolveCostScaling(int32_t s,
                                                             int32_t t) {
  assert(s >= 0 && s < num_nodes());
  assert(t >= 0 && t < num_nodes());
  assert(s != t);
  const int64_t scale = static_cast<int64_t>(num_nodes()) + 1;
  int64_t max_cost = 0;
  for (size_t e = 0; e < to_.size(); e += 2) {
    max_cost = std::max(max_cost, cost_[e]);
  }
  // Overflow budget: prices drop by at most ~3n * eps per refine round and
  // eps starts at max_cost * scale, so every scaled reduced cost stays
  // within a small multiple of scale * max_cost * n. Keeping that far below
  // kInf needs max_cost <= kInf / (16 * scale^2); otherwise the blocking
  // engine — whose label arithmetic saturates — handles the instance.
  const int64_t cost_budget = ((kInf / 16) / scale) / scale;
  if (max_cost > cost_budget) {
    ++cost_scaling_fallbacks_;
    return SolveBlocking(s, t);
  }
  if (level_.size() < head_.size()) {
    level_.resize(head_.size(), -1);
    cur_.resize(head_.size(), -1);
  }
  // Warm-started flow (even one that broke the SSP potentials) is simply
  // part of the pseudoflow refine re-optimizes, so no entry repair is
  // needed and no negative-cycle cancellation either.
  const int64_t cost_before = TotalRoutedCost();
  const int64_t added_flow = MaxFlowDinic(s, t);
  price_.assign(head_.size(), 0);
  excess_.assign(head_.size(), 0);
  // Scaled costs are multiples of scale = n + 1, so a 1-optimal flow has no
  // residual cycle cheaper than -n > -scale — i.e. none at all: eps = 1
  // certifies exact optimality. Start at the trivial bound (the zero-price
  // flow is (max_cost * scale)-optimal) and divide by 8 per round.
  int64_t eps = max_cost * scale;
  while (eps > 1) {
    eps = std::max<int64_t>(1, eps / 8);
    Refine(eps, scale);
  }
  // Prices are not Johnson potentials; a later potential-based Solve must
  // rebuild its invariant first.
  needs_repair_ = true;
  Outcome outcome;
  outcome.flow = added_flow;
  // Refine may also re-route flow carried into this call, so the call's
  // cost contribution is the network-wide delta (equal to the full routed
  // cost on a fresh instance).
  outcome.cost = TotalRoutedCost() - cost_before;
  return outcome;
}

}  // namespace ftoa
