#include "baselines/tgoa.h"

#include <gtest/gtest.h>

#include <string>

#include "baselines/offline_opt.h"
#include "baselines/reference_tgoa.h"
#include "baselines/simple_greedy.h"
#include "gen/synthetic.h"
#include "test_util.h"

namespace ftoa {
namespace {

using ftoa::testing::AllArrivalPatterns;
using ftoa::testing::ArrivalPattern;
using ftoa::testing::ArrivalPatternName;
using ftoa::testing::ExpectIdenticalDecisions;
using ftoa::testing::FuzzUniverse;
using ftoa::testing::MakeExample1Instance;
using ftoa::testing::MakeFuzzUniverse;
using ftoa::testing::ReferenceTgoa;

TEST(TgoaTest, ServesColocatedPair) {
  const SpacetimeSpec st(SlotSpec(10.0, 1), GridSpec(10.0, 10.0, 5, 5));
  std::vector<Worker> workers(1);
  workers[0] = {0, {1.0, 1.0}, 0.0, 10.0};
  std::vector<Task> tasks(1);
  tasks[0] = {0, {1.0, 1.0}, 1.0, 5.0};
  const Instance instance(st, 1.0, std::move(workers), std::move(tasks));
  Tgoa tgoa;
  EXPECT_EQ(tgoa.Run(instance).size(), 1u);
  EXPECT_EQ(tgoa.name(), "TGOA");
}

TEST(TgoaTest, Example1BehavesLikeWaitInPlace) {
  // TGOA cannot relocate workers either, so on Example 1 it serves at most
  // the tasks reachable from waiting workers.
  const Instance instance = MakeExample1Instance();
  Tgoa tgoa;
  const Assignment assignment = tgoa.Run(instance);
  EXPECT_LE(assignment.size(), 2u);
  EXPECT_TRUE(assignment
                  .Validate(instance,
                            FeasibilityPolicy::kDispatchAtAssignmentTime)
                  .ok());
}

TEST(TgoaTest, GreedyFractionZeroIsAllOptimalPhase) {
  const Instance instance = MakeExample1Instance();
  Tgoa all_optimal(TgoaOptions{.greedy_fraction = 0.0});
  Tgoa all_greedy(TgoaOptions{.greedy_fraction = 1.0});
  // Both run to completion and produce valid assignments.
  const Assignment a = all_optimal.Run(instance);
  const Assignment b = all_greedy.Run(instance);
  EXPECT_TRUE(a.Validate(instance,
                         FeasibilityPolicy::kDispatchAtAssignmentTime)
                  .ok());
  EXPECT_TRUE(b.Validate(instance,
                         FeasibilityPolicy::kDispatchAtAssignmentTime)
                  .ok());
}

TEST(TgoaTest, BoundedByOptOnRandomWorkloads) {
  SyntheticConfig config;
  config.num_workers = 300;
  config.num_tasks = 300;
  config.grid_x = 10;
  config.grid_y = 10;
  config.num_slots = 8;
  for (uint64_t seed : {11u, 22u, 33u}) {
    config.seed = seed;
    const auto instance = GenerateSyntheticInstance(config);
    ASSERT_TRUE(instance.ok());
    Tgoa tgoa;
    OfflineOpt opt;
    const Assignment assignment = tgoa.Run(*instance);
    EXPECT_LE(assignment.size(), opt.Run(*instance).size());
    EXPECT_TRUE(assignment
                    .Validate(*instance,
                              FeasibilityPolicy::kDispatchAtAssignmentTime)
                    .ok());
  }
}

/// Runs the product TGOA and the rebuild-per-arrival oracle on `instance`
/// and asserts the same decisions, pair by pair. Returns the oracle's
/// rebuild count so callers can assert the comparison was not vacuous.
int64_t ExpectSameDecisionsAsOracle(const Instance& instance,
                                    const TgoaOptions& options,
                                    const std::string& label) {
  Tgoa product(options);
  ReferenceTgoa oracle(options);
  RunTrace product_trace;
  RunTrace oracle_trace;
  const Assignment a = product.Run(instance, &product_trace);
  const Assignment b = oracle.Run(instance, &oracle_trace);
  ExpectIdenticalDecisions(a, product_trace, b, oracle_trace, label);
  return oracle.rebuilds();
}

TEST(TgoaTest, IncrementalMatchesRebuildOnExample1) {
  // Under the default half-greedy split (and even a quarter) no
  // optimal-phase arrival of Example 1 has a feasible partner, so the
  // oracle would never build a matcher and the comparison would prove
  // nothing. With no greedy phase every arrival consults the matcher.
  const Instance instance = MakeExample1Instance();
  EXPECT_GT(ExpectSameDecisionsAsOracle(
                instance, TgoaOptions{.greedy_fraction = 0.0}, "all-optimal"),
            0);
}

TEST(TgoaTest, IncrementalMatchesRebuildOnRandomWorkloads) {
  // The carry-across-arrivals matcher must commit exactly the pairs of
  // the historical rebuild-per-arrival trial on deterministic instances.
  SyntheticConfig config;
  config.num_workers = 250;
  config.num_tasks = 250;
  config.grid_x = 10;
  config.grid_y = 10;
  config.num_slots = 8;
  for (uint64_t seed : {3u, 17u, 51u, 202u}) {
    config.seed = seed;
    const auto instance = GenerateSyntheticInstance(config);
    ASSERT_TRUE(instance.ok());
    const std::string label = "seed " + std::to_string(seed);
    EXPECT_GT(ExpectSameDecisionsAsOracle(*instance, TgoaOptions{}, label),
              0)
        << label;
    Tgoa tgoa;
    RunTrace trace;
    const Assignment a = tgoa.Run(*instance, &trace);
    EXPECT_TRUE(a.Validate(*instance,
                           FeasibilityPolicy::kDispatchAtAssignmentTime)
                    .ok())
        << label;
    EXPECT_GT(trace.matcher_augment_searches, 0) << label;
  }
}

TEST(TgoaTest, IncrementalMatchesRebuildOnFuzzUniverses) {
  // The adversarial arrival orders: one side first, strict alternation,
  // identical timestamps, ids uncorrelated with arrival order.
  for (const ArrivalPattern pattern : AllArrivalPatterns()) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      const FuzzUniverse universe = MakeFuzzUniverse(seed, pattern);
      const std::string label = std::string(ArrivalPatternName(pattern)) +
                                " seed " + std::to_string(seed);
      EXPECT_GT(ExpectSameDecisionsAsOracle(universe.instance,
                                            universe.deps.tgoa_options,
                                            label),
                0)
          << label;
    }
  }
}

TEST(TgoaTest, OptimalPhaseCanBeatPureGreedyLocally) {
  // A configuration where nearest-first greedy makes a regrettable choice:
  // the second-phase guardrail avoids it. w0 arrives first and sits
  // between two tasks; greedy would give the late worker nothing.
  const SpacetimeSpec st(SlotSpec(20.0, 1), GridSpec(20.0, 20.0, 5, 5));
  std::vector<Worker> workers(2);
  workers[0] = {0, {10.0, 1.0}, 0.0, 20.0};
  workers[1] = {1, {2.0, 1.0}, 12.0, 20.0};  // Second phase arrival.
  std::vector<Task> tasks(2);
  tasks[0] = {0, {9.0, 1.0}, 11.0, 8.0};   // Near w0.
  tasks[1] = {1, {3.0, 1.0}, 13.0, 8.0};   // Near w1.
  const Instance instance(st, 1.0, std::move(workers), std::move(tasks));
  Tgoa tgoa;
  EXPECT_EQ(tgoa.Run(instance).size(), 2u);
}

}  // namespace
}  // namespace ftoa
