// Property suite for post-merge boundary reconciliation
// (sim/boundary_reconciler) through the sharded dispatcher: reconciled
// runs only *add* pairs (the base merge is a strict prefix), every added
// pair joins previously-unmatched objects from different shards and
// satisfies the algorithm's object-level deadline policy (guide-capacity-
// aware for the POLAR family), the pass is bit-identical across thread
// counts and reruns, and it degenerates to a no-op at one shard. The
// *Stress* sweep crosses MakeFuzzInstance arrival patterns x routers x
// handoff batch sizes (FTOA_STRESS_ITERS widens it).

#include "sim/boundary_reconciler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithm_registry.h"
#include "sim/runner.h"
#include "sim/sharded_dispatcher.h"
#include "test_util.h"
#include "util/rng.h"

namespace ftoa {
namespace {

using ::ftoa::testing::AllArrivalPatterns;
using ::ftoa::testing::ArrivalPattern;
using ::ftoa::testing::ArrivalPatternName;
using ::ftoa::testing::ExpectIdenticalRun;
using ::ftoa::testing::FuzzUniverse;
using ::ftoa::testing::MakeFuzzUniverse;
using ::ftoa::testing::StressIterations;

using Universe = FuzzUniverse;

/// Runs the same sharded configuration twice — reconciliation off and on —
/// and checks the full reconciliation contract against the base run.
void ExpectReconcileContract(const Universe& universe,
                             const std::string& algorithm_name,
                             ShardedOptions options,
                             const std::string& label) {
  options.algorithm = algorithm_name;
  options.reconcile = false;
  auto base_dispatcher = ShardedDispatcher::Create(options, universe.deps);
  ASSERT_TRUE(base_dispatcher.ok()) << base_dispatcher.status().ToString();
  auto base = (*base_dispatcher)->Run(universe.instance);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_EQ(base->metrics.reconciled_pairs, 0) << label;

  options.reconcile = true;
  auto dispatcher = ShardedDispatcher::Create(options, universe.deps);
  ASSERT_TRUE(dispatcher.ok()) << dispatcher.status().ToString();
  auto reconciled = (*dispatcher)->Run(universe.instance);
  ASSERT_TRUE(reconciled.ok()) << reconciled.status().ToString();

  // Never unmatch: the base merge is a literal prefix of the reconciled
  // pair list, and the traces agree (reconciliation decides nothing
  // through the sessions).
  ASSERT_GE(reconciled->assignment.size(), base->assignment.size()) << label;
  for (size_t i = 0; i < base->assignment.pairs().size(); ++i) {
    const MatchedPair& expected = base->assignment.pairs()[i];
    const MatchedPair& got = reconciled->assignment.pairs()[i];
    ASSERT_EQ(expected.worker, got.worker) << label << " pair " << i;
    ASSERT_EQ(expected.task, got.task) << label << " pair " << i;
    ASSERT_EQ(expected.time, got.time) << label << " pair " << i;
  }

  // The algorithm's own policy, guide, and the run's router decide what an
  // added pair must satisfy.
  auto algorithm = CreateAlgorithm(algorithm_name, universe.deps);
  ASSERT_TRUE(algorithm.ok()) << algorithm.status().ToString();
  const FeasibilityPolicy policy = (*algorithm)->feasibility_policy();
  const OfflineGuide* guide = (*algorithm)->guide();
  const std::unique_ptr<ShardRouter> router = MakeShardRouter(
      options.router, universe.instance, options.num_shards);

  // Guide capacity the added pairs spent per (worker type, task type).
  std::map<std::pair<TypeId, TypeId>, int32_t> spent;

  const size_t added =
      reconciled->assignment.size() - base->assignment.size();
  EXPECT_EQ(reconciled->reconcile.recovered_pairs,
            static_cast<int64_t>(added))
      << label;
  EXPECT_EQ(reconciled->metrics.reconciled_pairs,
            static_cast<int64_t>(added))
      << label;
  EXPECT_EQ(reconciled->metrics.matching_size,
            static_cast<int64_t>(reconciled->assignment.size()))
      << label;
  // Every boundary worker is either queried or, on a guided run, skipped
  // because its guide type has no capacity at all.
  const ReconcileStats& stats = reconciled->reconcile;
  EXPECT_EQ(stats.retrieval.queries + stats.no_capacity_workers,
            stats.boundary_workers)
      << label;
  if (guide == nullptr) {
    EXPECT_EQ(stats.no_capacity_workers, 0) << label;
  }

  for (size_t i = base->assignment.pairs().size();
       i < reconciled->assignment.pairs().size(); ++i) {
    const MatchedPair& pair = reconciled->assignment.pairs()[i];
    const Worker& w = universe.instance.worker(pair.worker);
    const Task& r = universe.instance.task(pair.task);
    // Both endpoints were left unmatched by the base run ...
    EXPECT_FALSE(base->assignment.IsWorkerMatched(pair.worker))
        << label << " pair " << i;
    EXPECT_FALSE(base->assignment.IsTaskMatched(pair.task))
        << label << " pair " << i;
    // ... live in *different* shards (same-shard leftovers are the
    // per-shard algorithm's own decisions and stay untouched) ...
    EXPECT_NE(router->Route(ObjectKind::kWorker, w.id, w.location),
              router->Route(ObjectKind::kTask, r.id, r.location))
        << label << " pair " << i;
    // ... and satisfy the algorithm's object-level deadline policy.
    EXPECT_TRUE(CanServe(w, r, universe.instance.velocity(), policy))
        << label << " pair " << i;
    // Guide-capacity awareness: consume the matched-pair multiplicity of
    // the pair's (worker type, task type); running dry would mean the
    // reconciler over-spent the guide.
    if (guide != nullptr) {
      const SpacetimeSpec& st = guide->spacetime();
      const TypeId worker_type = st.TypeOf(w.location, w.start);
      const TypeId task_type = st.TypeOf(r.location, r.start);
      int32_t count = 0;
      for (const TypeCapacity& c : guide->CapacityOfWorkerType(worker_type)) {
        if (c.task_type == task_type) count = c.count;
      }
      int32_t& used = spent[std::make_pair(worker_type, task_type)];
      ASSERT_LT(used, count) << label << " pair " << i;
      ++used;
    }
  }
}

class BoundaryReconcilerTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(BoundaryReconcilerTest, OnlyAddsValidCrossShardPairs) {
  for (const ArrivalPattern pattern :
       {ArrivalPattern::kBursty, ArrivalPattern::kShuffledIds}) {
    const Universe universe = MakeFuzzUniverse(101, pattern);
    for (const int num_shards : {2, 4}) {
      for (const ShardRouterKind router :
           {ShardRouterKind::kGrid, ShardRouterKind::kHash,
            ShardRouterKind::kLoad}) {
        ShardedOptions options;
        options.num_shards = num_shards;
        options.num_threads = num_shards;
        options.router = router;
        ExpectReconcileContract(
            universe, GetParam(), options,
            std::string(GetParam()) + " " + ArrivalPatternName(pattern) +
                " shards=" + std::to_string(num_shards) + " " +
                ShardRouterKindName(router));
      }
    }
  }
}

TEST_P(BoundaryReconcilerTest, NoOpAtOneShard) {
  // A single shard has no border: the reconciled run must stay
  // bit-identical to the unsharded session path, recovered count zero.
  const Universe universe = MakeFuzzUniverse(7, ArrivalPattern::kShuffledIds);
  auto algorithm = CreateAlgorithm(GetParam(), universe.deps);
  ASSERT_TRUE(algorithm.ok()) << algorithm.status().ToString();
  RunTrace solo_trace;
  const Assignment solo = (*algorithm)->Run(universe.instance, &solo_trace);

  ShardedOptions options;
  options.algorithm = GetParam();
  options.num_shards = 1;
  options.reconcile = true;
  auto dispatcher = ShardedDispatcher::Create(options, universe.deps);
  ASSERT_TRUE(dispatcher.ok()) << dispatcher.status().ToString();
  auto result = (*dispatcher)->Run(universe.instance);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectIdenticalRun(solo, solo_trace, result->assignment, result->trace,
                  std::string(GetParam()) + " 1-shard reconcile");
  EXPECT_EQ(result->reconcile.recovered_pairs, 0);
  EXPECT_EQ(result->reconcile.boundary_workers, 0);
  EXPECT_EQ(result->metrics.reconciled_pairs, 0);
}

TEST_P(BoundaryReconcilerTest, ThreadCountDoesNotChangeTheReconciledOutput) {
  const Universe universe = MakeFuzzUniverse(409, ArrivalPattern::kBursty);
  std::unique_ptr<ShardedRunResult> reference;
  for (const int num_threads : {1, 2, 4}) {
    ShardedOptions options;
    options.algorithm = GetParam();
    options.num_shards = 4;
    options.num_threads = num_threads;
    options.reconcile = true;
    auto dispatcher = ShardedDispatcher::Create(options, universe.deps);
    ASSERT_TRUE(dispatcher.ok()) << dispatcher.status().ToString();
    auto result = (*dispatcher)->Run(universe.instance);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (reference == nullptr) {
      reference = std::make_unique<ShardedRunResult>(std::move(*result));
      continue;
    }
    ExpectIdenticalRun(reference->assignment, reference->trace,
                    result->assignment, result->trace,
                    std::string(GetParam()) + " threads=" +
                        std::to_string(num_threads));
    EXPECT_EQ(reference->reconcile.recovered_pairs,
              result->reconcile.recovered_pairs);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, BoundaryReconcilerTest,
                         ::testing::Values("simple-greedy", "gr", "tgoa",
                                           "polar", "polar-op", "polar-op-g",
                                           "opt"),
                         [](const auto& tpi) {
                           std::string name = tpi.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(BoundaryReconcilerSuiteTest, RecoversTheForfeitedCrossBoundaryMatch) {
  // One worker below the band cut, one feasible task above it: the 2-shard
  // grid partition forfeits the only possible match, and reconciliation
  // must win exactly it back.
  std::vector<Worker> workers(1);
  workers[0] = {0, {5.0, 2.5}, 0.0, 10.0};
  std::vector<Task> tasks(1);
  tasks[0] = {0, {5.0, 7.5}, 0.0, 10.0};
  const Instance instance(
      SpacetimeSpec(SlotSpec(10.0, 2), GridSpec(10.0, 10.0, 4, 4)),
      /*velocity=*/2.0, std::move(workers), std::move(tasks));

  ShardedOptions options;
  options.algorithm = "simple-greedy";
  options.num_shards = 2;
  auto base_dispatcher = ShardedDispatcher::Create(options);
  ASSERT_TRUE(base_dispatcher.ok());
  auto base = (*base_dispatcher)->Run(instance);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_EQ(base->assignment.size(), 0u);

  options.reconcile = true;
  auto dispatcher = ShardedDispatcher::Create(options);
  ASSERT_TRUE(dispatcher.ok());
  auto result = (*dispatcher)->Run(instance);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->assignment.size(), 1u);
  EXPECT_EQ(result->assignment.pairs()[0].worker, 0);
  EXPECT_EQ(result->assignment.pairs()[0].task, 0);
  // Decision time: the earliest moment a platform seeing both shards
  // could have committed the pair.
  EXPECT_EQ(result->assignment.pairs()[0].time, 0.0);
  EXPECT_EQ(result->reconcile.recovered_pairs, 1);
  EXPECT_EQ(result->reconcile.boundary_workers, 1);
  EXPECT_EQ(result->reconcile.boundary_tasks, 1);

  // The unsharded algorithm agrees this match exists.
  auto algorithm = CreateAlgorithm("simple-greedy");
  ASSERT_TRUE(algorithm.ok());
  EXPECT_EQ((*algorithm)->Run(instance).size(), 1u);
}

TEST(BoundaryReconcilerSuiteTest, RunnerPlumbsHandoffAndReconcile) {
  const Universe universe = MakeFuzzUniverse(3, ArrivalPattern::kAlternating);
  auto algorithm = CreateAlgorithm("simple-greedy", universe.deps);
  ASSERT_TRUE(algorithm.ok());

  RunnerOptions options;
  options.num_shards = 4;
  options.shard_threads = 2;
  options.shard_handoff_batch = 3;
  options.shard_reconcile = true;
  const auto metrics =
      RunAlgorithm(algorithm->get(), universe.instance, options);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  ShardedOptions sharded;
  sharded.num_shards = 4;
  sharded.num_threads = 2;
  sharded.handoff_batch = 3;
  sharded.reconcile = true;
  ShardedDispatcher dispatcher(algorithm->get(), sharded);
  auto direct = dispatcher.Run(universe.instance);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(metrics->matching_size,
            static_cast<int64_t>(direct->assignment.size()));
  EXPECT_EQ(metrics->reconciled_pairs, direct->reconcile.recovered_pairs);
  EXPECT_GT(metrics->busy_seconds, 0.0);
}

TEST(BoundaryReconcilerSuiteTest, DirectCallRejectsBadOptions) {
  const Universe universe = MakeFuzzUniverse(3, ArrivalPattern::kBursty);
  const std::unique_ptr<ShardRouter> router =
      MakeShardRouter(ShardRouterKind::kGrid, universe.instance, 2);
  Assignment assignment(universe.instance.num_workers(),
                        universe.instance.num_tasks());
  ReconcileOptions options;
  options.max_candidates_per_worker = 0;
  const auto stats = ReconcileShardBoundary(universe.instance, *router,
                                            options, &assignment);
  EXPECT_FALSE(stats.ok());
}

// ------------------------------------------------------------- stress suite --

/// Randomized sweep of the full reconciliation contract: arrival pattern x
/// router x handoff batch size x algorithm, plus rerun determinism.
TEST(BoundaryReconcilerStressTest, RandomizedReconcileSweep) {
  const int iterations = StressIterations(2);
  const std::vector<std::string> algorithms = AllAlgorithmNames();
  const std::vector<ArrivalPattern> patterns = AllArrivalPatterns();
  const std::vector<ShardRouterKind> routers = {ShardRouterKind::kGrid,
                                                ShardRouterKind::kHash,
                                                ShardRouterKind::kLoad};
  Rng rng(20260731);
  for (int iter = 0; iter < iterations; ++iter) {
    const ArrivalPattern pattern =
        patterns[rng.NextBounded(patterns.size())];
    const uint64_t seed = rng.Next();
    const Universe universe = MakeFuzzUniverse(
        seed, pattern, 40 + static_cast<int>(rng.NextBounded(41)),
        40 + static_cast<int>(rng.NextBounded(41)));
    for (const std::string& name : algorithms) {
      ShardedOptions options;
      options.num_shards = 2 + static_cast<int>(rng.NextBounded(7));
      options.num_threads = 1 + static_cast<int>(rng.NextBounded(4));
      options.router = routers[rng.NextBounded(routers.size())];
      options.handoff_batch =
          1 + static_cast<int>(rng.NextBounded(300));
      const std::string label =
          "iter " + std::to_string(iter) + " " + name + " " +
          ArrivalPatternName(pattern) + " " +
          ShardRouterKindName(options.router) +
          " shards=" + std::to_string(options.num_shards) +
          " threads=" + std::to_string(options.num_threads) +
          " handoff=" + std::to_string(options.handoff_batch);
      ExpectReconcileContract(universe, name, options, label);

      // Rerun determinism of the reconciled path.
      options.algorithm = name;
      options.reconcile = true;
      auto dispatcher = ShardedDispatcher::Create(options, universe.deps);
      ASSERT_TRUE(dispatcher.ok()) << dispatcher.status().ToString();
      auto first = (*dispatcher)->Run(universe.instance);
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      auto second = (*dispatcher)->Run(universe.instance);
      ASSERT_TRUE(second.ok()) << second.status().ToString();
      ExpectIdenticalRun(first->assignment, first->trace,
                      second->assignment, second->trace, label + " rerun");
      EXPECT_EQ(first->reconcile.recovered_pairs,
                second->reconcile.recovered_pairs)
          << label;
    }
  }
}

}  // namespace
}  // namespace ftoa
