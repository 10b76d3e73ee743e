#include "flow/reference_min_cost_flow.h"

#include <algorithm>
#include <deque>
#include <limits>

namespace ftoa {
namespace testing {
namespace {

constexpr int64_t kInf = std::numeric_limits<int64_t>::max() / 4;

/// Saturating add into [-kInf, kInf], as in the product solver: a
/// kInf-seeded label plus a near-limit cost pins at kInf instead of
/// wrapping negative and corrupting the search.
int64_t SatAdd(int64_t a, int64_t b) {
  int64_t sum;
  if (__builtin_add_overflow(a, b, &sum)) return b > 0 ? kInf : -kInf;
  return std::clamp<int64_t>(sum, -kInf, kInf);
}

}  // namespace

int32_t ReferenceMinCostFlow::AddEdge(int32_t u, int32_t v, int64_t cap,
                                      int64_t cost) {
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
  return forward;
}

MinCostFlowGraph::Outcome ReferenceMinCostFlow::Solve(int32_t s, int32_t t) {
  MinCostFlowGraph::Outcome outcome;
  const size_t n = head_.size();
  std::vector<int64_t> dist(n);
  std::vector<int32_t> in_edge(n);
  std::vector<bool> in_queue(n);

  while (true) {
    // SPFA shortest path by cost in the residual network (handles the
    // negative residual costs of reversed edges).
    std::fill(dist.begin(), dist.end(), kInf);
    std::fill(in_edge.begin(), in_edge.end(), -1);
    std::fill(in_queue.begin(), in_queue.end(), false);
    std::deque<int32_t> queue;
    dist[static_cast<size_t>(s)] = 0;
    queue.push_back(s);
    in_queue[static_cast<size_t>(s)] = true;
    while (!queue.empty()) {
      const int32_t u = queue.front();
      queue.pop_front();
      in_queue[static_cast<size_t>(u)] = false;
      for (int32_t e = head_[static_cast<size_t>(u)]; e != -1;
           e = next_[static_cast<size_t>(e)]) {
        if (cap_[static_cast<size_t>(e)] <= 0) continue;
        const int32_t v = to_[static_cast<size_t>(e)];
        const int64_t candidate = SatAdd(dist[static_cast<size_t>(u)],
                                         cost_[static_cast<size_t>(e)]);
        if (candidate < dist[static_cast<size_t>(v)]) {
          dist[static_cast<size_t>(v)] = candidate;
          in_edge[static_cast<size_t>(v)] = e;
          if (!in_queue[static_cast<size_t>(v)]) {
            in_queue[static_cast<size_t>(v)] = true;
            // SLF heuristic: push closer nodes to the front.
            if (!queue.empty() &&
                dist[static_cast<size_t>(v)] <
                    dist[static_cast<size_t>(queue.front())]) {
              queue.push_front(v);
            } else {
              queue.push_back(v);
            }
          }
        }
      }
    }
    if (dist[static_cast<size_t>(t)] >= kInf) break;

    // Find the bottleneck along the shortest path, then augment.
    int64_t bottleneck = kInf;
    for (int32_t v = t; v != s;) {
      const int32_t e = in_edge[static_cast<size_t>(v)];
      bottleneck = std::min(bottleneck, cap_[static_cast<size_t>(e)]);
      v = to_[static_cast<size_t>(e ^ 1)];
    }
    for (int32_t v = t; v != s;) {
      const int32_t e = in_edge[static_cast<size_t>(v)];
      cap_[static_cast<size_t>(e)] -= bottleneck;
      cap_[static_cast<size_t>(e ^ 1)] += bottleneck;
      v = to_[static_cast<size_t>(e ^ 1)];
    }
    outcome.flow += bottleneck;
    outcome.cost += bottleneck * dist[static_cast<size_t>(t)];
  }
  return outcome;
}

}  // namespace testing
}  // namespace ftoa
