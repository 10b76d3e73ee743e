#include "baselines/gr_batch.h"

#include <gtest/gtest.h>

#include "baselines/reference_gr.h"
#include "baselines/simple_greedy.h"
#include "gen/synthetic.h"
#include "test_util.h"

namespace ftoa {
namespace {

using ftoa::testing::MakeExample1Instance;
using ftoa::testing::ReferenceGr;

TEST(GrBatchTest, MatchesWithinWindows) {
  // One worker and one task in the same window, co-located.
  const SpacetimeSpec st(SlotSpec(10.0, 5), GridSpec(10.0, 10.0, 5, 5));
  std::vector<Worker> workers(1);
  workers[0] = {0, {1.0, 1.0}, 0.2, 10.0};
  std::vector<Task> tasks(1);
  tasks[0] = {0, {1.0, 1.0}, 0.5, 5.0};
  const Instance instance(st, 1.0, std::move(workers), std::move(tasks));
  GrBatch gr(GrBatchOptions{.window = 2.0});
  const Assignment assignment = gr.Run(instance);
  ASSERT_EQ(assignment.size(), 1u);
  // The match is decided at the first window boundary (t = 2).
  EXPECT_DOUBLE_EQ(assignment.pairs()[0].time, 2.0);
}

TEST(GrBatchTest, BatchingCanLoseTightDeadlines) {
  // The task expires before the first window boundary: GR misses what an
  // immediate matcher would have served.
  const SpacetimeSpec st(SlotSpec(10.0, 2), GridSpec(10.0, 10.0, 5, 5));
  std::vector<Worker> workers(1);
  workers[0] = {0, {1.0, 1.0}, 0.0, 10.0};
  std::vector<Task> tasks(1);
  tasks[0] = {0, {1.0, 1.0}, 0.1, 1.0};  // Deadline 1.1 < boundary 5.0.
  const Instance instance(st, 1.0, std::move(workers), std::move(tasks));
  GrBatch gr;
  EXPECT_EQ(gr.Run(instance).size(), 0u);
  SimpleGreedy greedy;
  EXPECT_EQ(greedy.Run(instance).size(), 1u);
}

TEST(GrBatchTest, BatchMatchingIsMaximumWithinWindow) {
  // Two workers, two tasks; a greedy nearest rule would match the central
  // worker to the nearest task and strand the other pair, while GR's
  // batch maximum matching serves both.
  const SpacetimeSpec st(SlotSpec(4.0, 1), GridSpec(20.0, 20.0, 5, 5));
  std::vector<Worker> workers(2);
  workers[0] = {0, {5.0, 1.0}, 0.1, 10.0};   // Can reach t0 only.
  workers[1] = {1, {5.9, 1.0}, 0.1, 10.0};   // Can reach both.
  std::vector<Task> tasks(2);
  tasks[0] = {0, {6.2, 1.0}, 0.2, 6.0};   // Deadline 6.2.
  tasks[1] = {1, {10.0, 1.0}, 0.2, 6.0};  // Deadline 6.2; only w1 in range.
  // Feasibility from the boundary t = 4: w0 reaches t0 (d = 1.2, arrive
  // 5.2) but not t1 (d = 5, arrive 9). w1 reaches t0 (d = 0.3) and t1
  // (d = 4.1, arrive 8.1 > 6.2? no — infeasible). Adjust t1 deadline.
  tasks[1].duration = 9.0;  // Deadline 9.2: w1 arrives 8.1, feasible.
  const Instance instance(st, 1.0, std::move(workers), std::move(tasks));
  GrBatch gr(GrBatchOptions{.window = 4.0});
  const Assignment assignment = gr.Run(instance);
  EXPECT_EQ(assignment.size(), 2u);
}

TEST(GrBatchTest, CustomWindowRespected) {
  // With a small window the decision happens earlier.
  const SpacetimeSpec st(SlotSpec(10.0, 2), GridSpec(10.0, 10.0, 5, 5));
  std::vector<Worker> workers(1);
  workers[0] = {0, {1.0, 1.0}, 0.0, 10.0};
  std::vector<Task> tasks(1);
  tasks[0] = {0, {1.0, 1.0}, 0.1, 1.0};
  const Instance instance(st, 1.0, std::move(workers), std::move(tasks));
  GrBatch gr(GrBatchOptions{.window = 0.5});
  const Assignment assignment = gr.Run(instance);
  ASSERT_EQ(assignment.size(), 1u);
  EXPECT_DOUBLE_EQ(assignment.pairs()[0].time, 0.5);
}

TEST(GrBatchTest, Example1ProducesValidAssignment) {
  const Instance instance = MakeExample1Instance();
  GrBatch gr;
  const Assignment assignment = gr.Run(instance);
  // Wait-in-place with 5-minute windows: tight Dr = 2 tasks mostly expire
  // before a boundary arrives.
  EXPECT_LE(assignment.size(), 2u);
}

TEST(GrBatchTest, TasksCarryAcrossWindows) {
  // A task with a long deadline is matched in a later window when a worker
  // finally appears.
  const SpacetimeSpec st(SlotSpec(10.0, 5), GridSpec(10.0, 10.0, 5, 5));
  std::vector<Worker> workers(1);
  workers[0] = {0, {1.0, 1.0}, 5.5, 10.0};
  std::vector<Task> tasks(1);
  tasks[0] = {0, {1.0, 1.0}, 0.5, 9.0};  // Deadline 9.5.
  const Instance instance(st, 1.0, std::move(workers), std::move(tasks));
  GrBatch gr(GrBatchOptions{.window = 2.0});
  const Assignment assignment = gr.Run(instance);
  ASSERT_EQ(assignment.size(), 1u);
  EXPECT_DOUBLE_EQ(assignment.pairs()[0].time, 6.0);
}

TEST(GrBatchTest, IncrementalMatchesRebuildOnExample1) {
  const Instance instance = MakeExample1Instance();
  GrBatch incremental(GrBatchOptions{});
  ReferenceGr rebuild(GrBatchOptions{});
  const Assignment a = incremental.Run(instance);
  const Assignment b = rebuild.Run(instance);
  EXPECT_EQ(a.size(), b.size());
}

TEST(GrBatchTest, IncrementalMatchesRebuildOnRandomWorkloads) {
  // Carrying the matcher across windows (inserting only the new arrivals'
  // nodes/edges and re-augmenting for them) must deliver the same total
  // utility as the oracle that rebuilds a Hopcroft-Karp instance per
  // window. The two may commit different maximum matchings, so only the
  // counts are compared.
  SyntheticConfig config;
  config.num_workers = 300;
  config.num_tasks = 300;
  config.grid_x = 10;
  config.grid_y = 10;
  config.num_slots = 8;
  for (uint64_t seed : {5u, 29u, 71u, 113u}) {
    config.seed = seed;
    const auto instance = GenerateSyntheticInstance(config);
    ASSERT_TRUE(instance.ok());
    GrBatch incremental(GrBatchOptions{});
    ReferenceGr rebuild(GrBatchOptions{});
    RunTrace inc_trace;
    const Assignment a = incremental.Run(*instance, &inc_trace);
    const Assignment b = rebuild.Run(*instance);
    EXPECT_EQ(a.size(), b.size()) << "seed " << seed;
    EXPECT_GT(inc_trace.matcher_augment_searches, 0) << "seed " << seed;
    EXPECT_GT(rebuild.rebuilds(), 0) << "seed " << seed;
    // Every committed pair must satisfy the boundary-departure rule in
    // both modes (mirrors AssignmentsFeasibleFromBoundary).
    for (const MatchedPair& pair : a.pairs()) {
      const Worker& w = instance->worker(pair.worker);
      const Task& r = instance->task(pair.task);
      EXPECT_LE(w.start, pair.time);
      EXPECT_LE(r.start, pair.time);
      const double arrival =
          pair.time +
          TravelTime(w.location, r.location, instance->velocity());
      EXPECT_LE(arrival, r.Deadline() + 1e-9);
      EXPECT_LT(r.start, w.Deadline());
    }
  }
}

// Property: GR's assignments always satisfy the wait-in-place arrival rule
// (decision-time departure) and never exceed min(|W|, |R|).
class GrBatchPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GrBatchPropertyTest, AssignmentsFeasibleFromBoundary) {
  SyntheticConfig config;
  config.num_workers = 300;
  config.num_tasks = 300;
  config.grid_x = 10;
  config.grid_y = 10;
  config.num_slots = 8;
  config.seed = GetParam() * 3 + 11;
  const auto instance = GenerateSyntheticInstance(config);
  ASSERT_TRUE(instance.ok());
  GrBatch gr;
  const Assignment assignment = gr.Run(*instance);
  EXPECT_LE(assignment.size(),
            std::min(instance->num_workers(), instance->num_tasks()));
  for (const MatchedPair& pair : assignment.pairs()) {
    const Worker& w = instance->worker(pair.worker);
    const Task& r = instance->task(pair.task);
    // Both objects had arrived by the decision time.
    EXPECT_LE(w.start, pair.time);
    EXPECT_LE(r.start, pair.time);
    // Departing at the boundary still meets the task deadline.
    const double arrival =
        pair.time +
        TravelTime(w.location, r.location, instance->velocity());
    EXPECT_LE(arrival, r.Deadline() + 1e-9);
    // Condition (1) of Definition 4.
    EXPECT_LT(r.start, w.Deadline());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrBatchPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace ftoa
