#include "flow/min_cost_flow.h"

#include <gtest/gtest.h>

#include <vector>

#include "flow/dinic.h"
#include "flow/graph.h"
#include "flow/reference_min_cost_flow.h"
#include "util/rng.h"

namespace ftoa {
namespace {

TEST(MinCostFlowTest, PrefersCheaperPath) {
  // Two parallel s->t paths; max flow 2, the cheaper path carries flow
  // first but both are needed for maximality.
  MinCostFlowGraph g(4);
  g.AddEdge(0, 1, 1, 1);
  g.AddEdge(1, 3, 1, 1);
  g.AddEdge(0, 2, 1, 5);
  g.AddEdge(2, 3, 1, 5);
  const auto outcome = g.Solve(0, 3);
  EXPECT_EQ(outcome.flow, 2);
  EXPECT_EQ(outcome.cost, 12);
}

TEST(MinCostFlowTest, ChoosesMinCostAmongMaxFlows) {
  // Bipartite assignment: two workers, two tasks, both can serve both.
  // Costs: w0-t0 = 1, w0-t1 = 10, w1-t0 = 10, w1-t1 = 1.
  // Max flow = 2; min cost = 2 (diagonal), not 20.
  MinCostFlowGraph g(6);
  g.AddEdge(0, 1, 1, 0);  // s -> w0
  g.AddEdge(0, 2, 1, 0);  // s -> w1
  g.AddEdge(3, 5, 1, 0);  // t0 -> t
  g.AddEdge(4, 5, 1, 0);  // t1 -> t
  g.AddEdge(1, 3, 1, 1);
  g.AddEdge(1, 4, 1, 10);
  g.AddEdge(2, 3, 1, 10);
  g.AddEdge(2, 4, 1, 1);
  const auto outcome = g.Solve(0, 5);
  EXPECT_EQ(outcome.flow, 2);
  EXPECT_EQ(outcome.cost, 2);
}

TEST(MinCostFlowTest, MaximizesFlowEvenWhenCostly) {
  // The only way to get flow 2 uses an expensive edge; flow must still
  // be maximal.
  MinCostFlowGraph g(4);
  g.AddEdge(0, 1, 2, 0);
  g.AddEdge(1, 2, 1, 1);
  g.AddEdge(1, 3, 1, 100);
  g.AddEdge(2, 3, 1, 1);
  const auto outcome = g.Solve(0, 3);
  EXPECT_EQ(outcome.flow, 2);
  EXPECT_EQ(outcome.cost, 102);
}

TEST(MinCostFlowTest, ZeroFlowWhenDisconnected) {
  MinCostFlowGraph g(3);
  g.AddEdge(0, 1, 1, 1);
  const auto outcome = g.Solve(0, 2);
  EXPECT_EQ(outcome.flow, 0);
  EXPECT_EQ(outcome.cost, 0);
}

TEST(MinCostFlowTest, PerEdgeFlowQuery) {
  MinCostFlowGraph g(3);
  const int32_t cheap = g.AddEdge(0, 1, 2, 1);
  const int32_t hop = g.AddEdge(1, 2, 2, 1);
  const auto outcome = g.Solve(0, 2);
  EXPECT_EQ(outcome.flow, 2);
  EXPECT_EQ(g.Flow(cheap), 2);
  EXPECT_EQ(g.Flow(hop), 2);
}

TEST(MinCostFlowTest, ResetReusesInstance) {
  MinCostFlowGraph g(4);
  g.AddEdge(0, 1, 1, 1);
  g.AddEdge(1, 3, 1, 1);
  EXPECT_EQ(g.Solve(0, 3).flow, 1);
  // Rewind and build a different network in the same object.
  g.Reset(3);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 0u);
  const int32_t e = g.AddEdge(0, 1, 2, 3);
  g.AddEdge(1, 2, 2, 4);
  const auto outcome = g.Solve(0, 2);
  EXPECT_EQ(outcome.flow, 2);
  EXPECT_EQ(outcome.cost, 14);
  EXPECT_EQ(g.Flow(e), 2);
}

TEST(MinCostFlowTest, SolveIsResumableAfterAddingEdges) {
  // Solve, then append a strictly cheaper parallel route and re-solve: the
  // carried flow is no longer min-cost for its value (the residual network
  // gains a negative cycle), so the resumed Solve must cancel it — the
  // final routed flow has to match a cold solve of the full graph exactly.
  MinCostFlowGraph incremental(4);
  incremental.AddEdge(0, 1, 1, 2);
  incremental.AddEdge(1, 3, 1, 2);
  const auto first = incremental.Solve(0, 3);
  EXPECT_EQ(first.flow, 1);
  EXPECT_EQ(first.cost, 4);
  incremental.AddEdge(0, 2, 1, 1);
  incremental.AddEdge(2, 3, 1, 1);
  const auto second = incremental.Solve(0, 3);
  EXPECT_EQ(second.flow, 1);

  MinCostFlowGraph cold(4);
  cold.AddEdge(0, 1, 1, 2);
  cold.AddEdge(1, 3, 1, 2);
  cold.AddEdge(0, 2, 1, 1);
  cold.AddEdge(2, 3, 1, 1);
  const auto reference = cold.Solve(0, 3);
  EXPECT_EQ(first.flow + second.flow, reference.flow);
  EXPECT_EQ(incremental.TotalRoutedCost(), reference.cost);
  EXPECT_EQ(incremental.TotalRoutedCost(), cold.TotalRoutedCost());
}

TEST(MinCostFlowTest, WarmStartFromInjectedFlow) {
  // Inject the min-cost unit of flow along s -> a -> t, then Solve: the
  // remaining max flow and the final per-edge flows match a cold solve.
  auto build = [](MinCostFlowGraph& g, std::vector<int32_t>& edges) {
    g.Reset(4);
    edges.clear();
    edges.push_back(g.AddEdge(0, 1, 1, 1));  // s -> a
    edges.push_back(g.AddEdge(1, 3, 1, 1));  // a -> t
    edges.push_back(g.AddEdge(0, 2, 1, 5));  // s -> b
    edges.push_back(g.AddEdge(2, 3, 1, 5));  // b -> t
  };
  MinCostFlowGraph warm;
  std::vector<int32_t> warm_edges;
  build(warm, warm_edges);
  warm.PushFlow(warm_edges[0], 1);
  warm.PushFlow(warm_edges[1], 1);
  const auto warm_outcome = warm.Solve(0, 3);
  EXPECT_EQ(warm_outcome.flow, 1);   // Only the remaining unit.
  EXPECT_EQ(warm_outcome.cost, 10);  // The expensive path.

  MinCostFlowGraph cold;
  std::vector<int32_t> cold_edges;
  build(cold, cold_edges);
  const auto cold_outcome = cold.Solve(0, 3);
  EXPECT_EQ(cold_outcome.flow, 2);
  for (size_t i = 0; i < warm_edges.size(); ++i) {
    EXPECT_EQ(warm.Flow(warm_edges[i]), cold.Flow(cold_edges[i]));
  }
}

TEST(MinCostFlowTest, AddNodeGrowsGraph) {
  MinCostFlowGraph g(2);
  g.AddEdge(0, 1, 1, 1);
  const int32_t mid = g.AddNode();
  EXPECT_EQ(mid, 2);
  g.AddEdge(1, mid, 1, 1);
  const auto outcome = g.Solve(0, mid);
  EXPECT_EQ(outcome.flow, 1);
  EXPECT_EQ(outcome.cost, 2);
}

// Property: the flow value of min-cost max-flow equals plain max flow on
// the same random network.
class McmfPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(McmfPropertyTest, FlowValueMatchesDinic) {
  Rng rng(GetParam());
  const int n = 6 + static_cast<int>(rng.NextBounded(6));
  MinCostFlowGraph mcmf(n);
  FlowGraph plain(n);
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (u != v && rng.NextBool(0.3)) {
        const int64_t cap = 1 + static_cast<int64_t>(rng.NextBounded(4));
        const int64_t cost = static_cast<int64_t>(rng.NextBounded(10));
        mcmf.AddEdge(u, v, cap, cost);
        plain.AddEdge(u, v, cap);
      }
    }
  }
  const auto outcome = mcmf.Solve(0, n - 1);
  const int64_t reference = DinicMaxFlow(&plain, 0, n - 1);
  EXPECT_EQ(outcome.flow, reference);
  EXPECT_GE(outcome.cost, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, McmfPropertyTest,
                         ::testing::Range<uint64_t>(1, 16));

// Property: the Dijkstra-with-potentials solver and the SPFA oracle
// (tests/flow/reference_min_cost_flow.h) agree on both flow value and total cost, on random sparse digraphs
// and on random bipartite assignment networks.
class DijkstraVsSpfaTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DijkstraVsSpfaTest, RandomDigraphMatchesOracle) {
  Rng rng(GetParam() * 7919 + 13);
  const int n = 6 + static_cast<int>(rng.NextBounded(10));
  MinCostFlowGraph dijkstra(n);
  testing::ReferenceMinCostFlow spfa(n);
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (u != v && rng.NextBool(0.35)) {
        const int64_t cap = 1 + static_cast<int64_t>(rng.NextBounded(5));
        const int64_t cost = static_cast<int64_t>(rng.NextBounded(20));
        dijkstra.AddEdge(u, v, cap, cost);
        spfa.AddEdge(u, v, cap, cost);
      }
    }
  }
  const auto fast = dijkstra.Solve(0, n - 1);
  const auto oracle = spfa.Solve(0, n - 1);
  EXPECT_EQ(fast.flow, oracle.flow);
  EXPECT_EQ(fast.cost, oracle.cost);
  // Per-edge flows may differ between equally cheap solutions, but both
  // must be maximum and min-cost; the (flow, cost) pair pins that down.
}

TEST_P(DijkstraVsSpfaTest, RandomBipartiteMatchesOracle) {
  Rng rng(GetParam() * 104729 + 7);
  const int side = 8 + static_cast<int>(rng.NextBounded(17));
  const int32_t source = 0;
  const int32_t sink = 1 + 2 * side;
  MinCostFlowGraph dijkstra(sink + 1);
  testing::ReferenceMinCostFlow spfa(sink + 1);
  auto both = [&](int32_t u, int32_t v, int64_t cap, int64_t cost) {
    dijkstra.AddEdge(u, v, cap, cost);
    spfa.AddEdge(u, v, cap, cost);
  };
  for (int w = 0; w < side; ++w) both(source, 1 + w, 1, 0);
  for (int r = 0; r < side; ++r) both(1 + side + r, sink, 1, 0);
  for (int w = 0; w < side; ++w) {
    for (int r = 0; r < side; ++r) {
      if (rng.NextBool(0.4)) {
        both(1 + w, 1 + side + r,
             1, static_cast<int64_t>(rng.NextBounded(1000)));
      }
    }
  }
  const auto fast = dijkstra.Solve(source, sink);
  const auto oracle = spfa.Solve(source, sink);
  EXPECT_EQ(fast.flow, oracle.flow);
  EXPECT_EQ(fast.cost, oracle.cost);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraVsSpfaTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace ftoa
