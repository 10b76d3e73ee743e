// Test oracle for MinCostFlowGraph: the original min-cost max-flow solver,
// one SPFA (Bellman-Ford queue variant with the SLF heuristic) shortest
// path per augmentation over the residual network. It keeps no potentials
// and no scratch between calls, so it is strictly slower than every
// registered FlowEngine (~5x at 2048 x 2048 against kSsp); it exists only
// so the flow suites can check each engine's (flow, cost) outcome.
//
// Same AddEdge/Solve surface as MinCostFlowGraph, on its own graph. Label
// arithmetic saturates at kInf = int64_max / 4 like the product solver, and
// a path whose cost label reaches kInf counts as unreachable, so outcome
// comparisons are only meaningful while path costs stay below kInf.

#ifndef FTOA_TESTS_FLOW_REFERENCE_MIN_COST_FLOW_H_
#define FTOA_TESTS_FLOW_REFERENCE_MIN_COST_FLOW_H_

#include <cstdint>
#include <vector>

#include "flow/min_cost_flow.h"

namespace ftoa {
namespace testing {

class ReferenceMinCostFlow {
 public:
  explicit ReferenceMinCostFlow(int32_t num_nodes)
      : head_(static_cast<size_t>(num_nodes), -1) {}

  /// Adds edge u -> v with capacity `cap` >= 0 and per-unit cost
  /// `cost` >= 0. Returns the forward edge id (residual partner at id ^ 1).
  int32_t AddEdge(int32_t u, int32_t v, int64_t cap, int64_t cost);

  /// Sends as much flow as possible from s to t at minimum total cost;
  /// returns the flow and cost added by this call.
  MinCostFlowGraph::Outcome Solve(int32_t s, int32_t t);

 private:
  std::vector<int32_t> head_;
  std::vector<int32_t> next_;
  std::vector<int32_t> to_;
  std::vector<int64_t> cap_;
  std::vector<int64_t> cost_;
};

}  // namespace testing
}  // namespace ftoa

#endif  // FTOA_TESTS_FLOW_REFERENCE_MIN_COST_FLOW_H_
