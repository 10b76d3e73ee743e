#include "baselines/offline_opt.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/gr_batch.h"
#include "baselines/simple_greedy.h"
#include "core/guide_generator.h"
#include "core/polar.h"
#include "core/polar_op.h"
#include "gen/synthetic.h"
#include "test_util.h"

namespace ftoa {
namespace {

using ftoa::testing::AllArrivalPatterns;
using ftoa::testing::ArrivalPatternName;
using ftoa::testing::MakeExample1Instance;
using ftoa::testing::MakeFuzzInstance;

/// Maximum matching size over every CanServe pair of the full cross
/// product, by plain augmenting paths (Kuhn) — no spatial query and no
/// shared matcher code, so an edge OPT's candidate search drops shows up
/// as a smaller OPT.
size_t BruteForceMaximumMatching(const Instance& instance) {
  const size_t num_workers = static_cast<size_t>(instance.num_workers());
  const size_t num_tasks = static_cast<size_t>(instance.num_tasks());
  std::vector<std::vector<size_t>> adjacent(num_workers);
  for (const Worker& w : instance.workers()) {
    for (const Task& r : instance.tasks()) {
      if (CanServe(w, r, instance.velocity(),
                   FeasibilityPolicy::kDispatchAtWorkerStart)) {
        adjacent[static_cast<size_t>(w.id)].push_back(
            static_cast<size_t>(r.id));
      }
    }
  }
  std::vector<int64_t> match_of_task(num_tasks, -1);
  std::vector<bool> visited;
  struct Augmenter {
    const std::vector<std::vector<size_t>>& adjacent;
    std::vector<int64_t>& match_of_task;
    std::vector<bool>& visited;
    bool Run(size_t worker) {
      for (const size_t task : adjacent[worker]) {
        if (visited[task]) continue;
        visited[task] = true;
        if (match_of_task[task] < 0 ||
            Run(static_cast<size_t>(match_of_task[task]))) {
          match_of_task[task] = static_cast<int64_t>(worker);
          return true;
        }
      }
      return false;
    }
  } augmenter{adjacent, match_of_task, visited};
  size_t matched = 0;
  for (size_t worker = 0; worker < num_workers; ++worker) {
    visited.assign(num_tasks, false);
    if (augmenter.Run(worker)) ++matched;
  }
  return matched;
}

TEST(OfflineOptTest, Example1AchievesSix) {
  // Figure 1c: with movement allowed and full knowledge, all six tasks are
  // served.
  const Instance instance = MakeExample1Instance();
  OfflineOpt opt;
  const Assignment assignment = opt.Run(instance);
  EXPECT_EQ(assignment.size(), 6u);
  EXPECT_TRUE(assignment
                  .Validate(instance,
                            FeasibilityPolicy::kDispatchAtWorkerStart)
                  .ok());
  EXPECT_EQ(opt.name(), "OPT");
}

TEST(OfflineOptTest, EmptyInstance) {
  const Instance instance(
      SpacetimeSpec(SlotSpec(10.0, 2), GridSpec(8.0, 8.0, 2, 2)), 1.0, {},
      {});
  OfflineOpt opt;
  EXPECT_EQ(opt.Run(instance).size(), 0u);
}

TEST(OfflineOptTest, InfeasiblePairsNeverMatched) {
  const SpacetimeSpec st(SlotSpec(10.0, 1), GridSpec(100.0, 100.0, 10, 10));
  std::vector<Worker> workers(1);
  workers[0] = {0, {0.0, 0.0}, 0.0, 1.0};
  std::vector<Task> tasks(1);
  tasks[0] = {0, {90.0, 90.0}, 0.5, 1.0};  // Hopelessly far.
  const Instance instance(st, 1.0, std::move(workers), std::move(tasks));
  OfflineOpt opt;
  EXPECT_EQ(opt.Run(instance).size(), 0u);
}

TEST(OfflineOptTest, MatchesBruteForceMaximumOnFuzzInstances) {
  // OPT must find a maximum matching of the *whole* feasible pair set:
  // its spatial candidate search may skip only pairs CanServe rejects.
  size_t total = 0;
  for (const auto pattern : AllArrivalPatterns()) {
    for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
      const Instance instance = MakeFuzzInstance(seed, pattern);
      const size_t want = BruteForceMaximumMatching(instance);
      OfflineOpt opt;
      EXPECT_EQ(opt.Run(instance).size(), want)
          << ArrivalPatternName(pattern) << " seed " << seed;
      total += want;
    }
  }
  EXPECT_GT(total, 0u);  // The sweep exercised real matchings.
}

TEST(OfflineOptTest, DecisionTimeIsLaterArrival) {
  const SpacetimeSpec st(SlotSpec(10.0, 1), GridSpec(10.0, 10.0, 5, 5));
  std::vector<Worker> workers(1);
  workers[0] = {0, {1.0, 1.0}, 3.0, 5.0};
  std::vector<Task> tasks(1);
  tasks[0] = {0, {1.0, 1.0}, 1.0, 6.0};
  const Instance instance(st, 1.0, std::move(workers), std::move(tasks));
  OfflineOpt opt;
  const Assignment assignment = opt.Run(instance);
  ASSERT_EQ(assignment.size(), 1u);
  EXPECT_DOUBLE_EQ(assignment.pairs()[0].time, 3.0);
}

// Property: OPT dominates every online algorithm on the same instance
// (it is the denominator of the competitive ratio).
class OptDominanceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptDominanceTest, DominatesOnlineAlgorithms) {
  SyntheticConfig config;
  config.num_workers = 400;
  config.num_tasks = 400;
  config.grid_x = 10;
  config.grid_y = 10;
  config.num_slots = 8;
  config.seed = GetParam() * 101 + 3;
  const auto instance = GenerateSyntheticInstance(config);
  ASSERT_TRUE(instance.ok());
  const auto prediction = GenerateSyntheticPrediction(config);
  ASSERT_TRUE(prediction.ok());

  GuideOptions options;
  options.engine = GuideOptions::Engine::kDinic;
  options.worker_duration = config.worker_duration;
  options.task_duration = config.task_duration;
  auto guide = std::make_shared<const OfflineGuide>(std::move(
      GuideGenerator(config.velocity, options).Generate(*prediction))
                                                        .value());

  OfflineOpt opt;
  const size_t opt_size = opt.Run(*instance).size();

  SimpleGreedy greedy;
  GrBatch gr;
  // check_liveness makes every POLAR pair an object-level feasible edge, so
  // the dominance holds exactly (guide-trust pairs could otherwise exceed
  // Definition 4 by the slot-discretization slack).
  Polar polar(guide, PolarOptions{.check_liveness = true});
  PolarOp polar_op(guide, PolarOptions{.check_liveness = true});
  EXPECT_GE(opt_size, greedy.Run(*instance).size());
  EXPECT_GE(opt_size, gr.Run(*instance).size());
  EXPECT_GE(opt_size, polar.Run(*instance).size());
  EXPECT_GE(opt_size, polar_op.Run(*instance).size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptDominanceTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace ftoa
