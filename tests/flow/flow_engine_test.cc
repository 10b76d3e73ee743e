// FlowEngine registry + engine equivalence suites.
//
// Contract pinned here (see docs/flow_engines.md):
//  * every engine returns the same (flow, cost) Outcome as the SPFA
//    oracle (tests/flow/reference_min_cost_flow.h) on the same instance —
//    per-edge flow patterns may differ between equally cheap solutions,
//    the (flow, cost) pair pins them;
//  * per engine, the solved per-edge flows are bit-identical at any thread
//    count (SetParallelism only shards order-insensitive scans);
//  * kAuto is a pure function of the instance shape;
//  * near-limit costs saturate instead of wrapping (the kInf audit).

#include "flow/flow_engine.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "flow/min_cost_flow.h"
#include "flow/reference_min_cost_flow.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ftoa {
namespace {

constexpr int64_t kInf = std::numeric_limits<int64_t>::max() / 4;

const FlowEngine kConcreteEngines[] = {
    FlowEngine::kSsp, FlowEngine::kBlockingSsp, FlowEngine::kCostScaling};

// ---------------------------------------------------------------------------
// Registry.

TEST(FlowEngineRegistryTest, NamesRoundTripThroughParse) {
  for (const std::string& name : AllFlowEngineNames()) {
    const auto parsed = ParseFlowEngine(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(FlowEngineName(*parsed), name);
  }
}

TEST(FlowEngineRegistryTest, ParseRejectsUnknownListingValidSet) {
  const auto parsed = ParseFlowEngine("simplex");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("blocking-ssp"), std::string::npos);
}

TEST(FlowEngineRegistryTest, AutoSelectionIsAPureShapeFunction) {
  FlowInstanceShape shape;
  shape.num_nodes = 4098;
  shape.num_edges = 100'000;
  shape.supply = 2048;
  shape.max_capacity = 1;
  shape.unit_capacity_edges = 100'000;
  shape.cost_classes = 4;
  const FlowEngine first = ChooseFlowEngine(shape);
  EXPECT_EQ(ChooseFlowEngine(shape), first);
}

TEST(FlowEngineRegistryTest, AutoMatchesMeasuredCrossoverRegimes) {
  // Tiny remaining flow: per-unit SSP wins regardless of the network.
  FlowInstanceShape small;
  small.num_nodes = 4098;
  small.num_edges = 100'000;
  small.supply = 8;
  small.max_capacity = 1;
  small.unit_capacity_edges = 100'000;
  small.cost_classes = 4;
  EXPECT_EQ(ChooseFlowEngine(small), FlowEngine::kSsp);

  // The guide generator's node-level regime: unit-capacity bipartite,
  // large supply, heavy cost ties (quantized travel times repeat across
  // every node pair of a type pair) — the blocking engine's territory
  // (the `ties` rows of the BENCH_flow sweep).
  FlowInstanceShape unit = small;
  unit.supply = 2048;
  EXPECT_EQ(ChooseFlowEngine(unit), FlowEngine::kBlockingSsp);

  // Same layout with all-distinct costs (the `dense` sweep rows): each
  // blocking phase would admit ~one path, so the settle overhead loses —
  // measured winner is cost-scaling.
  FlowInstanceShape distinct = unit;
  distinct.cost_classes = 90'000;
  EXPECT_EQ(ChooseFlowEngine(distinct), FlowEngine::kCostScaling);

  // Compressed type-pair regime: high capacities, augmenting paths pay per
  // unit — cost-scaling territory.
  FlowInstanceShape heavy = unit;
  heavy.max_capacity = 10'000;
  heavy.unit_capacity_edges = 0;
  EXPECT_EQ(ChooseFlowEngine(heavy), FlowEngine::kCostScaling);

  // Degenerate shapes never crash the rule.
  FlowInstanceShape empty;
  EXPECT_EQ(ChooseFlowEngine(empty), FlowEngine::kSsp);
}

TEST(FlowEngineRegistryTest, ComputeShapeMeasuresTheResidualNetwork) {
  MinCostFlowGraph g(4);
  const int32_t e0 = g.AddEdge(0, 1, 5, 1);
  g.AddEdge(0, 2, 1, 1);
  g.AddEdge(1, 3, 1, 1);
  g.AddEdge(2, 3, 7, 1);
  FlowInstanceShape shape = g.ComputeShape(0);
  EXPECT_EQ(shape.num_nodes, 4);
  EXPECT_EQ(shape.num_edges, 4);
  EXPECT_EQ(shape.supply, 6);
  EXPECT_EQ(shape.max_capacity, 7);
  EXPECT_EQ(shape.unit_capacity_edges, 2);
  EXPECT_EQ(shape.cost_classes, 1);  // All four edges share cost 1.

  // Supply is residual (remaining headroom out of s); the capacity profile
  // keeps describing the *original* network under any routed flow.
  g.PushFlow(e0, 5);
  shape = g.ComputeShape(0);
  EXPECT_EQ(shape.supply, 1);
  EXPECT_EQ(shape.max_capacity, 7);
  EXPECT_EQ(shape.unit_capacity_edges, 2);
}

// ---------------------------------------------------------------------------
// Oracle equivalence: every engine vs the SPFA oracle.

using EdgeSpec = std::vector<std::array<int64_t, 4>>;  // u, v, cap, cost

MinCostFlowGraph BuildGraph(int32_t n, const EdgeSpec& edges) {
  MinCostFlowGraph g(n);
  g.ReserveEdges(edges.size());
  for (const auto& e : edges) {
    g.AddEdge(static_cast<int32_t>(e[0]), static_cast<int32_t>(e[1]), e[2],
              e[3]);
  }
  return g;
}

/// The SPFA oracle's outcome on the same network.
MinCostFlowGraph::Outcome SolveReference(int32_t n, const EdgeSpec& edges,
                                         int32_t s, int32_t t) {
  testing::ReferenceMinCostFlow oracle(n);
  for (const auto& e : edges) {
    oracle.AddEdge(static_cast<int32_t>(e[0]), static_cast<int32_t>(e[1]),
                   e[2], e[3]);
  }
  return oracle.Solve(s, t);
}

void ExpectAllEnginesMatchOracle(int32_t n, const EdgeSpec& edges, int32_t s,
                                 int32_t t) {
  const auto expected = SolveReference(n, edges, s, t);
  for (const FlowEngine engine : kConcreteEngines) {
    MinCostFlowGraph g = BuildGraph(n, edges);
    const auto outcome = g.Solve(s, t, engine);
    EXPECT_EQ(outcome.flow, expected.flow) << FlowEngineName(engine);
    EXPECT_EQ(outcome.cost, expected.cost) << FlowEngineName(engine);
    // The routed network must itself carry a min-cost flow, not just
    // report one.
    EXPECT_EQ(g.TotalRoutedCost(), expected.cost) << FlowEngineName(engine);
  }
  // kAuto resolves to one of the above, so it inherits the equivalence.
  MinCostFlowGraph g = BuildGraph(n, edges);
  const auto outcome = g.Solve(s, t, FlowEngine::kAuto);
  EXPECT_EQ(outcome.flow, expected.flow);
  EXPECT_EQ(outcome.cost, expected.cost);
}

class EngineOracleStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineOracleStressTest, DenseRandomDigraph) {
  Rng rng(GetParam() * 7919 + 3);
  const int32_t n = 6 + static_cast<int32_t>(rng.NextBounded(8));
  EdgeSpec edges;
  for (int32_t u = 0; u < n; ++u) {
    for (int32_t v = 0; v < n; ++v) {
      if (u != v && rng.NextBool(0.45)) {
        edges.push_back({u, v, 1 + static_cast<int64_t>(rng.NextBounded(9)),
                         static_cast<int64_t>(rng.NextBounded(50))});
      }
    }
  }
  ExpectAllEnginesMatchOracle(n, edges, 0, n - 1);
}

TEST_P(EngineOracleStressTest, SparseRandomDigraph) {
  Rng rng(GetParam() * 104729 + 11);
  const int32_t n = 20 + static_cast<int32_t>(rng.NextBounded(30));
  EdgeSpec edges;
  for (int32_t u = 0; u < n; ++u) {
    for (int32_t v = 0; v < n; ++v) {
      if (u != v && rng.NextBool(0.08)) {
        edges.push_back({u, v, 1 + static_cast<int64_t>(rng.NextBounded(4)),
                         static_cast<int64_t>(rng.NextBounded(1000))});
      }
    }
  }
  ExpectAllEnginesMatchOracle(n, edges, 0, n - 1);
}

TEST_P(EngineOracleStressTest, UnitCapacityBipartiteAssignment) {
  Rng rng(GetParam() * 65537 + 29);
  const int32_t side = 8 + static_cast<int32_t>(rng.NextBounded(17));
  const int32_t source = 0;
  const int32_t sink = 1 + 2 * side;
  EdgeSpec edges;
  for (int32_t w = 0; w < side; ++w) edges.push_back({source, 1 + w, 1, 0});
  for (int32_t r = 0; r < side; ++r) {
    edges.push_back({1 + side + r, sink, 1, 0});
  }
  for (int32_t w = 0; w < side; ++w) {
    for (int32_t r = 0; r < side; ++r) {
      if (rng.NextBool(0.4)) {
        edges.push_back({1 + w, 1 + side + r, 1,
                         1 + static_cast<int64_t>(rng.NextBounded(1000))});
      }
    }
  }
  ExpectAllEnginesMatchOracle(sink + 1, edges, source, sink);
}

TEST_P(EngineOracleStressTest, HighCapacityCompressedStyleNetwork) {
  // The compressed type-pair regime: few nodes, capacities in the
  // thousands — where per-unit augmentation is the enemy.
  Rng rng(GetParam() * 31337 + 5);
  const int32_t side = 4 + static_cast<int32_t>(rng.NextBounded(6));
  const int32_t source = 0;
  const int32_t sink = 1 + 2 * side;
  EdgeSpec edges;
  for (int32_t w = 0; w < side; ++w) {
    edges.push_back({source, 1 + w,
                     1 + static_cast<int64_t>(rng.NextBounded(5000)), 0});
  }
  for (int32_t r = 0; r < side; ++r) {
    edges.push_back({1 + side + r, sink,
                     1 + static_cast<int64_t>(rng.NextBounded(5000)), 0});
  }
  for (int32_t w = 0; w < side; ++w) {
    for (int32_t r = 0; r < side; ++r) {
      if (rng.NextBool(0.6)) {
        edges.push_back({1 + w, 1 + side + r,
                         1 + static_cast<int64_t>(rng.NextBounded(5000)),
                         static_cast<int64_t>(rng.NextBounded(100000))});
      }
    }
  }
  ExpectAllEnginesMatchOracle(sink + 1, edges, source, sink);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOracleStressTest,
                         ::testing::Range<uint64_t>(1, 21));

TEST(EngineDegenerateTest, ZeroSupplyAndDisconnectedInstances) {
  // Zero supply: s exists but exports nothing.
  ExpectAllEnginesMatchOracle(4, {{0, 1, 0, 5}, {1, 3, 3, 1}, {2, 3, 2, 1}},
                              0, 3);
  // Disconnected: t's component is unreachable from s.
  ExpectAllEnginesMatchOracle(6, {{0, 1, 4, 2}, {1, 2, 4, 2}, {3, 4, 4, 2},
                                  {4, 5, 4, 2}},
                              0, 5);
  // No edges at all.
  ExpectAllEnginesMatchOracle(3, {}, 0, 2);
  // Direct s-t edges only (shortest possible augmenting structure).
  ExpectAllEnginesMatchOracle(2, {{0, 1, 3, 7}, {0, 1, 2, 4}}, 0, 1);
}

// ---------------------------------------------------------------------------
// Warm starts and resumable solving.

class EngineWarmStartStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineWarmStartStressTest, PushFlowThenSolveReachesTheOptimum) {
  Rng rng(GetParam() * 2654435761 + 17);
  const int32_t side = 6 + static_cast<int32_t>(rng.NextBounded(8));
  const int32_t source = 0;
  const int32_t sink = 1 + 2 * side;
  EdgeSpec edges;
  for (int32_t w = 0; w < side; ++w) edges.push_back({source, 1 + w, 1, 0});
  for (int32_t r = 0; r < side; ++r) {
    edges.push_back({1 + side + r, sink, 1, 0});
  }
  // A complete middle layer so every warm-start injection below is part of
  // some feasible flow; expensive first pair edge to make naive warm
  // starts suboptimal.
  for (int32_t w = 0; w < side; ++w) {
    for (int32_t r = 0; r < side; ++r) {
      edges.push_back({1 + w, 1 + side + r, 1,
                       1 + static_cast<int64_t>(rng.NextBounded(500)) +
                           (w == 0 && r == 0 ? 100000 : 0)});
    }
  }

  const auto expected = SolveReference(sink + 1, edges, source, sink);

  for (const FlowEngine engine : kConcreteEngines) {
    MinCostFlowGraph g = BuildGraph(sink + 1, edges);
    // Inject one unit along source -> w0 -> r0 -> sink, deliberately via
    // the overpriced pair edge (edge ids: supply edges are added first in
    // order, the (0, 0) pair edge right after the demand edges).
    const int32_t supply0 = 0;           // Forward ids advance by 2.
    const int32_t demand0 = 2 * side;    // First demand edge (index side).
    const int32_t pair00 = 4 * side;     // First pair edge (index 2 * side).
    g.PushFlow(supply0, 1);
    g.PushFlow(pair00, 1);
    g.PushFlow(demand0, 1);
    const auto resumed = g.Solve(source, sink, engine);
    // The resumed Outcome counts only this call's contribution, so the
    // authoritative claims are about the network: maximum flow value and a
    // network-wide min cost, regardless of the (suboptimal) injection.
    EXPECT_EQ(resumed.flow + 1, expected.flow) << FlowEngineName(engine);
    EXPECT_EQ(g.TotalRoutedCost(), expected.cost) << FlowEngineName(engine);
  }
}

TEST_P(EngineWarmStartStressTest, AddEdgeThenResumeReachesTheOptimum) {
  Rng rng(GetParam() * 40503 + 23);
  const int32_t n = 8 + static_cast<int32_t>(rng.NextBounded(8));
  EdgeSpec first, second;
  for (int32_t u = 0; u < n; ++u) {
    for (int32_t v = 0; v < n; ++v) {
      if (u == v || !rng.NextBool(0.35)) continue;
      const std::array<int64_t, 4> e = {
          u, v, 1 + static_cast<int64_t>(rng.NextBounded(5)),
          static_cast<int64_t>(rng.NextBounded(200))};
      // Later edges are cheaper on average, so resuming must re-route.
      if (rng.NextBool(0.5)) {
        first.push_back(e);
      } else {
        second.push_back({e[0], e[1], e[2], e[3] / 4});
      }
    }
  }
  EdgeSpec all = first;
  all.insert(all.end(), second.begin(), second.end());
  const auto expected = SolveReference(n, all, 0, n - 1);

  for (const FlowEngine engine : kConcreteEngines) {
    MinCostFlowGraph g = BuildGraph(n, first);
    const auto partial = g.Solve(0, n - 1, engine);
    for (const auto& e : second) {
      g.AddEdge(static_cast<int32_t>(e[0]), static_cast<int32_t>(e[1]), e[2],
                e[3]);
    }
    const auto resumed = g.Solve(0, n - 1, engine);
    EXPECT_EQ(partial.flow + resumed.flow, expected.flow)
        << FlowEngineName(engine);
    EXPECT_EQ(g.TotalRoutedCost(), expected.cost) << FlowEngineName(engine);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineWarmStartStressTest,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Thread-count invariance: per engine, per-edge flows are bit-identical
// with and without the lent pool (min_parallel_items = 1 forces the
// parallel scans even on these small instances).

class EngineThreadInvarianceStressTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineThreadInvarianceStressTest, ParallelScansAreBitIdentical) {
  Rng rng(GetParam() * 9176 + 41);
  const int32_t side = 24;
  const int32_t source = 0;
  const int32_t sink = 1 + 2 * side;
  EdgeSpec edges;
  for (int32_t w = 0; w < side; ++w) {
    edges.push_back({source, 1 + w,
                     1 + static_cast<int64_t>(rng.NextBounded(3)), 0});
  }
  for (int32_t r = 0; r < side; ++r) {
    edges.push_back({1 + side + r, sink,
                     1 + static_cast<int64_t>(rng.NextBounded(3)), 0});
  }
  for (int32_t w = 0; w < side; ++w) {
    for (int32_t r = 0; r < side; ++r) {
      if (rng.NextBool(0.5)) {
        edges.push_back({1 + w, 1 + side + r,
                         1 + static_cast<int64_t>(rng.NextBounded(2)),
                         static_cast<int64_t>(rng.NextBounded(900))});
      }
    }
  }

  ThreadPool pool(3);
  for (const FlowEngine engine :
       {FlowEngine::kBlockingSsp, FlowEngine::kCostScaling}) {
    MinCostFlowGraph serial = BuildGraph(sink + 1, edges);
    const auto serial_outcome = serial.Solve(source, sink, engine);

    for (const int threads : {2, 3}) {
      MinCostFlowGraph parallel = BuildGraph(sink + 1, edges);
      parallel.SetParallelism(&pool, threads, /*min_parallel_items=*/1);
      const auto parallel_outcome = parallel.Solve(source, sink, engine);
      EXPECT_EQ(parallel_outcome.flow, serial_outcome.flow)
          << FlowEngineName(engine) << " threads=" << threads;
      EXPECT_EQ(parallel_outcome.cost, serial_outcome.cost)
          << FlowEngineName(engine) << " threads=" << threads;
      for (size_t e = 0; e < serial.num_edges(); ++e) {
        ASSERT_EQ(parallel.Flow(static_cast<int32_t>(2 * e)),
                  serial.Flow(static_cast<int32_t>(2 * e)))
            << FlowEngineName(engine) << " threads=" << threads
            << " edge=" << e;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineThreadInvarianceStressTest,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Engine-specific behavior.

TEST(EngineBehaviorTest, BlockingEngineCollapsesSearchesOnDenseAssignment) {
  // Tie-heavy small-integer travel costs — the guide generator's regime.
  // Each shortest-path cost class then admits many vertex-disjoint paths,
  // which is exactly what one blocking phase exploits; with all-distinct
  // costs the engine (correctly) degrades to one augmentation per phase.
  Rng rng(99);
  const int32_t side = 64;
  const int32_t source = 0;
  const int32_t sink = 1 + 2 * side;
  EdgeSpec edges;
  for (int32_t w = 0; w < side; ++w) edges.push_back({source, 1 + w, 1, 0});
  for (int32_t r = 0; r < side; ++r) {
    edges.push_back({1 + side + r, sink, 1, 0});
  }
  for (int32_t w = 0; w < side; ++w) {
    for (int32_t r = 0; r < side; ++r) {
      edges.push_back({1 + w, 1 + side + r, 1,
                       1 + static_cast<int64_t>(rng.NextBounded(4))});
    }
  }
  MinCostFlowGraph ssp = BuildGraph(sink + 1, edges);
  const auto ssp_outcome = ssp.Solve(source, sink, FlowEngine::kSsp);
  MinCostFlowGraph blocking = BuildGraph(sink + 1, edges);
  const auto blocking_outcome =
      blocking.Solve(source, sink, FlowEngine::kBlockingSsp);
  EXPECT_EQ(blocking_outcome.flow, ssp_outcome.flow);
  EXPECT_EQ(blocking_outcome.cost, ssp_outcome.cost);
  EXPECT_EQ(blocking_outcome.flow, side);
  // The whole point: far fewer shortest-path searches than flow units.
  EXPECT_GT(blocking.blocking_phases(), 0);
  EXPECT_LT(blocking.path_searches(), ssp.path_searches() / 2);
}

TEST(EngineBehaviorTest, CostScalingOverflowGuardFallsBackToBlocking) {
  // max_cost far above the scaled-cost budget: kCostScaling must detect it
  // and delegate to the (saturating) blocking engine rather than overflow.
  const int64_t huge = kInf / 8;
  EdgeSpec edges = {{0, 1, 2, huge}, {1, 3, 1, huge / 2}, {0, 2, 1, 3},
                    {2, 3, 2, huge / 3}, {1, 2, 1, 0}};
  const auto expected = SolveReference(4, edges, 0, 3);
  MinCostFlowGraph g = BuildGraph(4, edges);
  EXPECT_EQ(g.cost_scaling_fallbacks(), 0);
  const auto outcome = g.Solve(0, 3, FlowEngine::kCostScaling);
  EXPECT_EQ(g.cost_scaling_fallbacks(), 1);
  EXPECT_EQ(outcome.flow, expected.flow);
  EXPECT_EQ(outcome.cost, expected.cost);
}

// ---------------------------------------------------------------------------
// The kInf saturation audit (near-limit cost regression).

TEST(SaturatingArithmeticTest, SpfaSaturatesInsteadOfWrapping) {
  // s -> a -> b -> t stacks ~0.225 * int64_max onto ~0.9 * int64_max: the
  // pre-audit `dist + cost` relaxation wrapped negative here and corrupted
  // the search. Saturation pins the label at kInf, which the oracle's
  // cost-bounded reachability check then (correctly, by its own contract)
  // reports as unreachable — the cheap direct path is all it routes.
  const int64_t max64 = std::numeric_limits<int64_t>::max();
  const int64_t big = max64 - max64 / 10;  // ~0.9 * int64_max, legal input.
  testing::ReferenceMinCostFlow g(4);
  g.AddEdge(0, 1, 1, kInf - kInf / 10);
  g.AddEdge(1, 2, 1, big);
  g.AddEdge(2, 3, 1, 0);
  g.AddEdge(0, 3, 1, 7);
  const auto outcome = g.Solve(0, 3);
  EXPECT_EQ(outcome.flow, 1);
  EXPECT_EQ(outcome.cost, 7);
}

TEST(SaturatingArithmeticTest, DijkstraSaturatesAndStillTerminates) {
  // The potential-based path has no cost-bounded unreachability contract:
  // it must route both units without wrapping (labels clamp at the kInf
  // rail; exact cost accounting is documented to degrade out there).
  const int64_t max64 = std::numeric_limits<int64_t>::max();
  const int64_t big = max64 - max64 / 10;
  MinCostFlowGraph g(4);
  g.AddEdge(0, 1, 1, kInf - kInf / 10);
  g.AddEdge(1, 2, 1, big);
  g.AddEdge(2, 3, 1, 0);
  g.AddEdge(0, 3, 1, 7);
  const auto outcome = g.Solve(0, 3);
  EXPECT_EQ(outcome.flow, 2);
  EXPECT_GE(outcome.cost, 7);
}

TEST(SaturatingArithmeticTest, LargeSaneCostsStayExactAcrossEngines) {
  // Costs near kInf / 8 keep every label exact (path sums < kInf), so all
  // engines must still agree with the oracle to the unit. kCostScaling's
  // overflow guard trips here, which is part of the contract under test.
  Rng rng(7);
  const int32_t n = 6;
  EdgeSpec edges;
  for (int32_t u = 0; u < n; ++u) {
    for (int32_t v = 0; v < n; ++v) {
      if (u != v && rng.NextBool(0.5)) {
        edges.push_back({u, v, 1 + static_cast<int64_t>(rng.NextBounded(3)),
                         kInf / 8 - static_cast<int64_t>(
                                        rng.NextBounded(1'000'000))});
      }
    }
  }
  ExpectAllEnginesMatchOracle(n, edges, 0, n - 1);
}

TEST(SaturatingArithmeticTest, WarmStartRepairSurvivesNearLimitCosts) {
  // PushFlow onto the expensive chain leaves a reduced-cost-negative
  // reverse arc with near-limit magnitude; the repair path (cycle
  // cancellation + label-correcting potentials) must saturate, not wrap,
  // and still land on the network-wide optimum.
  const int64_t big = kInf / 8;
  EdgeSpec edges = {
      {0, 1, 1, big}, {1, 3, 1, big}, {0, 2, 1, 5}, {2, 3, 1, 5}};
  const auto expected = SolveReference(4, edges, 0, 3);
  MinCostFlowGraph g = BuildGraph(4, edges);
  g.PushFlow(0, 1);  // s -> 1 (the big chain).
  g.PushFlow(2, 1);  // 1 -> t.
  const auto resumed = g.Solve(0, 3);
  EXPECT_EQ(resumed.flow + 1, expected.flow);
  EXPECT_EQ(g.TotalRoutedCost(), expected.cost);
}

}  // namespace
}  // namespace ftoa
