// Oracle equivalence for boundary reconciliation: the product pass
// (sim/boundary_reconciler, whose guided runs walk only the cells the guide
// has capacity in) must append exactly the pairs, in exactly the order, of
// the ring-walk reference kept in tests/sim/reference_reconciler, and report
// the same boundary, recovered and capacity-dropped counts. Swept over
// algorithms x routers x shard counts x seeds, plus guides whose grid is
// coarser or finer than the instance's.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/algorithm_registry.h"
#include "core/guide_generator.h"
#include "core/prediction_matrix.h"
#include "sim/boundary_reconciler.h"
#include "sim/reference_reconciler.h"
#include "sim/sharded_dispatcher.h"
#include "test_util.h"

namespace ftoa {
namespace {

using ::ftoa::testing::AllArrivalPatterns;
using ::ftoa::testing::ArrivalPattern;
using ::ftoa::testing::ArrivalPatternName;
using ::ftoa::testing::FuzzUniverse;
using ::ftoa::testing::MakeFuzzUniverse;
using ::ftoa::testing::ReferenceReconcileShardBoundary;

constexpr int kObjects = 120;

/// A fuzz universe of `seed`; the arrival pattern cycles with the seed.
FuzzUniverse MakeUniverse(uint64_t seed) {
  const auto patterns = AllArrivalPatterns();
  return MakeFuzzUniverse(seed, patterns[seed % patterns.size()], kObjects,
                          kObjects);
}

/// Replaces the universe's guide with one generated over the same region
/// and slots but a `cells` x `cells` grid, from the instance's realized
/// counts under that grid.
void UseGuideOnGrid(FuzzUniverse* universe, int cells) {
  const Instance& instance = universe->instance;
  const GridSpec& grid = instance.spacetime().grid();
  const Instance regridded(
      SpacetimeSpec(instance.spacetime().slots(),
                    GridSpec(grid.width(), grid.height(), cells, cells)),
      instance.velocity(), instance.workers(), instance.tasks());
  GuideOptions options;
  options.engine = GuideOptions::Engine::kAuto;
  options.worker_duration = instance.MaxWorkerDuration();
  options.task_duration = instance.MaxTaskDuration();
  auto guide = GuideGenerator(instance.velocity(), options)
                   .Generate(PredictionMatrix::FromInstance(regridded));
  ASSERT_TRUE(guide.ok()) << guide.status().ToString();
  universe->deps.guide =
      std::make_shared<const OfflineGuide>(std::move(*guide));
}

/// Runs the sharded pipeline without reconciliation, then reconciles the
/// merged assignment with both the product pass and the reference, and
/// asserts identical pair lists and stats. Returns the product stats.
ReconcileStats ExpectSameAsReference(const FuzzUniverse& universe,
                                     const std::string& algorithm_name,
                                     ShardRouterKind router_kind,
                                     int num_shards,
                                     const std::string& label) {
  ShardedOptions options;
  options.algorithm = algorithm_name;
  options.num_shards = num_shards;
  options.num_threads = 1;
  options.router = router_kind;
  auto dispatcher = ShardedDispatcher::Create(options, universe.deps);
  EXPECT_TRUE(dispatcher.ok()) << dispatcher.status().ToString();
  if (!dispatcher.ok()) return {};
  auto merged = (*dispatcher)->Run(universe.instance);
  EXPECT_TRUE(merged.ok()) << merged.status().ToString();
  if (!merged.ok()) return {};

  auto algorithm = CreateAlgorithm(algorithm_name, universe.deps);
  EXPECT_TRUE(algorithm.ok()) << algorithm.status().ToString();
  if (!algorithm.ok()) return {};
  ReconcileOptions reconcile;
  reconcile.policy = (*algorithm)->feasibility_policy();
  reconcile.guide = (*algorithm)->guide();
  const std::unique_ptr<ShardRouter> router =
      MakeShardRouter(router_kind, universe.instance, num_shards);

  Assignment got = merged->assignment;
  Assignment want = merged->assignment;
  auto got_stats =
      ReconcileShardBoundary(universe.instance, *router, reconcile, &got);
  auto want_stats = ReferenceReconcileShardBoundary(
      universe.instance, *router, reconcile, &want);
  EXPECT_TRUE(got_stats.ok()) << got_stats.status().ToString();
  EXPECT_TRUE(want_stats.ok()) << want_stats.status().ToString();
  if (!got_stats.ok() || !want_stats.ok()) return {};

  EXPECT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    const MatchedPair& g = got.pairs()[i];
    const MatchedPair& w = want.pairs()[i];
    EXPECT_EQ(g.worker, w.worker) << label << " pair " << i;
    EXPECT_EQ(g.task, w.task) << label << " pair " << i;
    EXPECT_EQ(g.time, w.time) << label << " pair " << i;
  }
  EXPECT_EQ(got_stats->boundary_workers, want_stats->boundary_workers)
      << label;
  EXPECT_EQ(got_stats->boundary_tasks, want_stats->boundary_tasks) << label;
  EXPECT_EQ(got_stats->recovered_pairs, want_stats->recovered_pairs)
      << label;
  EXPECT_EQ(got_stats->capacity_dropped, want_stats->capacity_dropped)
      << label;
  // Every boundary worker is queried, or skipped for lack of capacity.
  EXPECT_EQ(got_stats->retrieval.queries + got_stats->no_capacity_workers,
            got_stats->boundary_workers)
      << label;
  if (reconcile.guide == nullptr) {
    EXPECT_EQ(got_stats->no_capacity_workers, 0) << label;
  }
  return *got_stats;
}

std::string Label(const std::string& algorithm, ShardRouterKind router,
                  int num_shards, uint64_t seed) {
  return algorithm + " " + ShardRouterKindName(router) +
         " shards=" + std::to_string(num_shards) +
         " seed=" + std::to_string(seed);
}

using SweepParam =
    std::tuple<const char*, ShardRouterKind, int, uint64_t>;

class ReconcilerEquivalenceTest
    : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ReconcilerEquivalenceTest, MatchesTheRingWalkReference) {
  const auto& [algorithm, router, num_shards, seed] = GetParam();
  const FuzzUniverse universe = MakeUniverse(seed);
  ExpectSameAsReference(universe, algorithm, router, num_shards,
                        Label(algorithm, router, num_shards, seed) + " " +
                            ArrivalPatternName(AllArrivalPatterns()[
                                seed % AllArrivalPatterns().size()]));
}

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name = std::get<0>(info.param);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_" + ShardRouterKindName(std::get<1>(info.param)) + "_" +
         std::to_string(std::get<2>(info.param)) + "shards_seed" +
         std::to_string(std::get<3>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReconcilerEquivalenceTest,
    ::testing::Combine(::testing::Values("polar", "polar-op", "polar-op-g",
                                         "simple-greedy", "tgoa"),
                       ::testing::Values(ShardRouterKind::kGrid,
                                         ShardRouterKind::kLoad,
                                         ShardRouterKind::kHash),
                       ::testing::Values(2, 4, 7),
                       ::testing::Values(uint64_t{11}, uint64_t{29},
                                         uint64_t{47})),
    SweepName);

TEST(ReconcilerEquivalenceSuiteTest, GuideGridDiffersFromInstanceGrid) {
  // The store is bucketed on the guide's grid, so a guide area is a store
  // cell whether the guide is coarser (2x2) or finer (8x8) than the 4x4
  // instance grid.
  for (const int guide_cells : {2, 8}) {
    for (const uint64_t seed : {uint64_t{11}, uint64_t{29}, uint64_t{47}}) {
      FuzzUniverse universe = MakeUniverse(seed);
      UseGuideOnGrid(&universe, guide_cells);
      ASSERT_EQ(universe.deps.guide->spacetime().grid().cells_x(),
                guide_cells);
      for (const char* algorithm : {"polar", "polar-op", "polar-op-g"}) {
        for (const ShardRouterKind router :
             {ShardRouterKind::kGrid, ShardRouterKind::kHash}) {
          ExpectSameAsReference(
              universe, algorithm, router, 4,
              Label(algorithm, router, 4, seed) +
                  " guide_cells=" + std::to_string(guide_cells));
        }
      }
    }
  }
}

TEST(ReconcilerEquivalenceSuiteTest, SweepExercisesRecoveryAndSkips) {
  // The comparison is only evidence if the paths it compares run. With
  // three workers per task the guide leaves many worker types without a
  // matched node, and hash routing puts most neighbours in different
  // shards: pairs are recovered, and workers are both queried and skipped.
  ReconcileStats total;
  for (const uint64_t seed : {uint64_t{11}, uint64_t{29}, uint64_t{47}}) {
    const FuzzUniverse universe =
        MakeFuzzUniverse(seed, ArrivalPattern::kShuffledIds, 180, 60);
    for (const char* algorithm : {"polar", "polar-op", "polar-op-g"}) {
      const ReconcileStats stats = ExpectSameAsReference(
          universe, algorithm, ShardRouterKind::kHash, 7,
          Label(algorithm, ShardRouterKind::kHash, 7, seed) + " 180x60");
      total.recovered_pairs += stats.recovered_pairs;
      total.no_capacity_workers += stats.no_capacity_workers;
      total.retrieval.queries += stats.retrieval.queries;
    }
  }
  EXPECT_GT(total.recovered_pairs, 0);
  EXPECT_GT(total.no_capacity_workers, 0);
  EXPECT_GT(total.retrieval.queries, 0);
}

}  // namespace
}  // namespace ftoa
