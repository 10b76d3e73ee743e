// The retrieval flag's contract: `--retrieval=engine` trades running time,
// never assignments. It selects SimpleGreedy's search (the paper's linear
// scan or the engine); every other algorithm always searches through the
// engine, so the flag must leave its run untouched. Every algorithm that
// scans candidates spatially must produce a bit-identical run (assignment,
// dispatches, matcher counters) under either setting, across the
// adversarial arrival patterns and under sharding. The *Stress* suite
// widens the sweep under `ctest -L stress`.

#include "retrieval/mode.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/algorithm_registry.h"
#include "sim/sharded_dispatcher.h"
#include "test_util.h"

namespace ftoa {
namespace {

using ftoa::testing::AllArrivalPatterns;
using ftoa::testing::ArrivalPattern;
using ftoa::testing::ArrivalPatternName;
using ftoa::testing::ExpectIdenticalRun;
using ftoa::testing::FuzzUniverse;
using ftoa::testing::MakeFuzzUniverse;
using ftoa::testing::StressIterations;

/// The per-arrival algorithms whose candidate scans the engine backs.
const char* const kPortedAlgorithms[] = {"simple-greedy", "tgoa",
                                         "polar-op-g"};

TEST(RetrievalModeTest, NamesParseAndRoundTrip) {
  EXPECT_EQ(AllRetrievalModeNames(),
            (std::vector<std::string>{"linear", "engine"}));
  for (const RetrievalMode mode :
       {RetrievalMode::kLinear, RetrievalMode::kEngine}) {
    const auto parsed = ParseRetrievalMode(RetrievalModeName(mode));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, mode);
  }
  const auto bogus = ParseRetrievalMode("quadtree");
  ASSERT_FALSE(bogus.ok());
  EXPECT_NE(bogus.status().ToString().find("linear"), std::string::npos);
  EXPECT_NE(bogus.status().ToString().find("engine"), std::string::npos);
}

TEST(RetrievalModeTest, EngineModePopulatesTraceStatsLinearDoesNot) {
  // Only SimpleGreedy's paper scan runs outside the engine; every other
  // spatial search reports engine stats whatever the mode.
  const FuzzUniverse universe =
      MakeFuzzUniverse(3, ArrivalPattern::kShuffledIds);
  for (const std::string name :
       {"simple-greedy", "tgoa", "polar-op-g", "gr", "opt"}) {
    AlgorithmDeps deps = universe.deps;
    deps.retrieval = RetrievalMode::kEngine;
    auto engine = CreateAlgorithm(name, deps);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    RunTrace engine_trace;
    (*engine)->Run(universe.instance, &engine_trace);
    EXPECT_GT(engine_trace.retrieval.queries, 0) << name;

    deps.retrieval = RetrievalMode::kLinear;
    auto linear = CreateAlgorithm(name, deps);
    ASSERT_TRUE(linear.ok()) << linear.status().ToString();
    RunTrace linear_trace;
    (*linear)->Run(universe.instance, &linear_trace);
    if (name == "simple-greedy") {
      EXPECT_EQ(linear_trace.retrieval.queries, 0) << name;
    } else {
      EXPECT_EQ(linear_trace.retrieval.queries,
                engine_trace.retrieval.queries)
          << name;
    }
  }
}

TEST(RetrievalModeTest, MasterSwitchNeverClobbersExplicitStructSettings) {
  // kLinear at the deps level must leave a per-struct kEngine choice
  // intact — tests and embedders that configure the option struct
  // directly keep what they asked for.
  const FuzzUniverse universe =
      MakeFuzzUniverse(4, ArrivalPattern::kAlternating);
  AlgorithmDeps deps = universe.deps;
  deps.retrieval = RetrievalMode::kLinear;
  deps.simple_greedy_options.retrieval = RetrievalMode::kEngine;
  auto algorithm = CreateAlgorithm("simple-greedy", deps);
  ASSERT_TRUE(algorithm.ok());
  RunTrace trace;
  (*algorithm)->Run(universe.instance, &trace);
  EXPECT_GT(trace.retrieval.queries, 0);
}

void ExpectEngineMatchesLinear(const std::string& name,
                               const AlgorithmDeps& base_deps,
                               const Instance& instance,
                               const std::string& label) {
  AlgorithmDeps linear_deps = base_deps;
  linear_deps.retrieval = RetrievalMode::kLinear;
  AlgorithmDeps engine_deps = base_deps;
  engine_deps.retrieval = RetrievalMode::kEngine;

  auto linear = CreateAlgorithm(name, linear_deps);
  auto engine = CreateAlgorithm(name, engine_deps);
  ASSERT_TRUE(linear.ok()) << linear.status().ToString();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  RunTrace linear_trace;
  RunTrace engine_trace;
  const Assignment a = (*linear)->Run(instance, &linear_trace);
  const Assignment b = (*engine)->Run(instance, &engine_trace);
  ExpectIdenticalRun(a, linear_trace, b, engine_trace, label);
  // Object-level deadline feasibility, for the algorithms that promise it
  // (polar-op-g's guide-trust pairs are type-representative feasible only;
  // the sharded suite documents that carve-out).
  if (name != "polar-op-g") {
    EXPECT_TRUE(a.Validate(instance, (*linear)->feasibility_policy()).ok())
        << label;
  }
}

class RetrievalEquivalenceTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(RetrievalEquivalenceTest, EngineRunIsBitIdenticalToLinear) {
  for (const ArrivalPattern pattern : AllArrivalPatterns()) {
    for (const uint64_t seed : {1u, 2u}) {
      const FuzzUniverse universe = MakeFuzzUniverse(seed, pattern);
      ExpectEngineMatchesLinear(
          GetParam(), universe.deps, universe.instance,
          std::string(GetParam()) + " " + ArrivalPatternName(pattern) +
              " seed " + std::to_string(seed));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PortedAlgorithms, RetrievalEquivalenceTest,
                         ::testing::ValuesIn(kPortedAlgorithms));

TEST(RetrievalModeTest, TgoaRebuildModeIsAlsoBitIdentical) {
  // The rebuild-per-arrival trial enumerates its waiting sets through the
  // pool too; the mode must not reach it either.
  for (const uint64_t seed : {5u, 6u}) {
    FuzzUniverse universe =
        MakeFuzzUniverse(seed, ArrivalPattern::kBursty);
    universe.deps.tgoa_options.incremental_matching = false;
    ExpectEngineMatchesLinear(
        "tgoa", universe.deps, universe.instance,
        "tgoa-rebuild seed " + std::to_string(seed));
  }
}

TEST(RetrievalModeTest, ShardedRunsAgreeAcrossModes) {
  // Per-shard sessions on the engine, merged and reconciled, must still
  // equal the linear sharded run — the reconciler itself always runs on
  // the engine, so its stats show up in both traces.
  const FuzzUniverse universe =
      MakeFuzzUniverse(9, ArrivalPattern::kShuffledIds);
  for (const char* name : kPortedAlgorithms) {
    ShardedOptions options;
    options.algorithm = name;
    options.num_shards = 3;
    options.reconcile = true;
    AlgorithmDeps linear_deps = universe.deps;
    linear_deps.retrieval = RetrievalMode::kLinear;
    AlgorithmDeps engine_deps = universe.deps;
    engine_deps.retrieval = RetrievalMode::kEngine;
    auto linear = ShardedDispatcher::Create(options, linear_deps);
    auto engine = ShardedDispatcher::Create(options, engine_deps);
    ASSERT_TRUE(linear.ok()) << linear.status().ToString();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    auto a = (*linear)->Run(universe.instance);
    auto b = (*engine)->Run(universe.instance);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectIdenticalRun(a->assignment, a->trace, b->assignment, b->trace,
                       std::string("sharded ") + name);
    EXPECT_GT(b->trace.retrieval.queries, 0) << name;
  }
}

// Widened engine-vs-linear sweep: every ported algorithm against every
// arrival pattern across FTOA_STRESS_ITERS seeds (tools/run_stress.sh).
TEST(RetrievalModeStress, EngineMatchesLinearAcrossFuzzUniverses) {
  const int iterations = StressIterations(2);
  for (int iter = 0; iter < iterations; ++iter) {
    const uint64_t seed = 101 + static_cast<uint64_t>(iter);
    for (const ArrivalPattern pattern : AllArrivalPatterns()) {
      const FuzzUniverse universe = MakeFuzzUniverse(seed, pattern, 90, 90);
      for (const char* name : kPortedAlgorithms) {
        ExpectEngineMatchesLinear(
            name, universe.deps, universe.instance,
            std::string(name) + " " + ArrivalPatternName(pattern) +
                " stress seed " + std::to_string(seed));
      }
    }
  }
}

}  // namespace
}  // namespace ftoa
