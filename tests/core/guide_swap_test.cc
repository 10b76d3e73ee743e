// Mid-stream guide hot-swap (AssignmentSession::SwapGuide): the serving
// harness's refresh point. These tests pin the contract of
// core/online_algorithm.h — committed pairs stay, guide-dependent state
// restarts empty, incompatible guides are rejected leaving the session
// untouched — and the sharded broadcast ordering/counting.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "baselines/simple_greedy.h"
#include "core/guide_generator.h"
#include "core/hybrid_polar_op.h"
#include "core/polar.h"
#include "core/polar_op.h"
#include "core/prediction_matrix.h"
#include "model/arrival_stream.h"
#include "sim/sharded_dispatcher.h"
#include "test_util.h"

namespace ftoa {
namespace {

using ftoa::testing::MakeExample1Instance;

std::shared_ptr<const OfflineGuide> BuildGuide(const Instance& instance) {
  GuideOptions options;
  options.worker_duration = 30.0;
  options.task_duration = 2.0;
  const GuideGenerator generator(instance.velocity(), options);
  auto guide = generator.Generate(PredictionMatrix::FromInstance(instance));
  EXPECT_TRUE(guide.ok()) << guide.status();
  return std::make_shared<const OfflineGuide>(std::move(guide).value());
}

void FeedAll(AssignmentSession& session, const Instance& instance) {
  for (const ArrivalEvent& event : BuildArrivalStream(instance)) {
    if (event.kind == ObjectKind::kWorker) {
      session.OnWorker(event.index, event.time);
    } else {
      session.OnTask(event.index, event.time);
    }
  }
}

TEST(GuideSwapTest, SwapBeforeFirstArrivalMatchesNoSwapRun) {
  const Instance instance = MakeExample1Instance();
  const auto guide = BuildGuide(instance);
  Polar polar(guide);
  const Assignment baseline = polar.Run(instance);

  // A swap to an equivalent guide before any arrival must be invisible.
  auto session = polar.StartSession(instance);
  EXPECT_TRUE(session->SwapGuide(BuildGuide(instance)));
  FeedAll(*session, instance);
  const SessionResult swapped = session->Finish();

  ASSERT_EQ(swapped.assignment.pairs().size(), baseline.pairs().size());
  for (size_t i = 0; i < baseline.pairs().size(); ++i) {
    EXPECT_EQ(swapped.assignment.pairs()[i].worker,
              baseline.pairs()[i].worker);
    EXPECT_EQ(swapped.assignment.pairs()[i].task, baseline.pairs()[i].task);
  }
}

TEST(GuideSwapTest, PolarSwapResetsNodeOccupancy) {
  // All workers occupy nodes, then the swap wipes the occupancy: the tasks
  // that follow find every partner node empty and match nothing.
  const Instance instance = MakeExample1Instance();
  Polar polar(BuildGuide(instance));
  auto session = polar.StartSession(instance);
  for (WorkerId w = 0; w < static_cast<WorkerId>(instance.num_workers());
       ++w) {
    session->OnWorker(w, instance.worker(w).start);
  }
  EXPECT_TRUE(session->SwapGuide(BuildGuide(instance)));
  for (TaskId r = 0; r < static_cast<TaskId>(instance.num_tasks());
       ++r) {
    session->OnTask(r, instance.task(r).start);
  }
  EXPECT_EQ(session->Finish().assignment.size(), 0u);
}

TEST(GuideSwapTest, PolarOpSwapReleasesWaitQueues) {
  const Instance instance = MakeExample1Instance();
  PolarOp polar_op(BuildGuide(instance));
  auto session = polar_op.StartSession(instance);
  for (WorkerId w = 0; w < static_cast<WorkerId>(instance.num_workers());
       ++w) {
    session->OnWorker(w, instance.worker(w).start);
  }
  EXPECT_TRUE(session->SwapGuide(BuildGuide(instance)));
  for (TaskId r = 0; r < static_cast<TaskId>(instance.num_tasks());
       ++r) {
    session->OnTask(r, instance.task(r).start);
  }
  // The queued workers were released by the swap; nothing is waiting.
  EXPECT_EQ(session->Finish().assignment.size(), 0u);
}

TEST(GuideSwapTest, HybridKeepsGreedyFallbackAcrossSwap) {
  // The hybrid's waiting pools are guide-independent: workers released from
  // the node queues by the swap remain reachable through the fallback, so
  // the post-swap tasks still match.
  const Instance instance = MakeExample1Instance();
  HybridPolarOp hybrid(BuildGuide(instance));
  auto session = hybrid.StartSession(instance);
  for (WorkerId w = 0; w < static_cast<WorkerId>(instance.num_workers());
       ++w) {
    session->OnWorker(w, instance.worker(w).start);
  }
  EXPECT_TRUE(session->SwapGuide(BuildGuide(instance)));
  for (TaskId r = 0; r < static_cast<TaskId>(instance.num_tasks());
       ++r) {
    session->OnTask(r, instance.task(r).start);
  }
  EXPECT_GT(session->Finish().assignment.size(), 0u);
}

TEST(GuideSwapTest, IncompatibleSpacetimeIsRejectedAndSessionContinues) {
  const Instance instance = MakeExample1Instance();
  Polar polar(BuildGuide(instance));
  const Assignment baseline = polar.Run(instance);

  // A guide over a different discretization (4x4 areas -> more types).
  const SpacetimeSpec other(SlotSpec(10.0, 2), GridSpec(8.0, 8.0, 4, 4));
  auto incompatible = std::make_shared<const OfflineGuide>(
      OfflineGuide(other, 1.0, 30.0, 2.0));

  auto session = polar.StartSession(instance);
  EXPECT_FALSE(session->SwapGuide(incompatible));
  EXPECT_FALSE(session->SwapGuide(nullptr));
  FeedAll(*session, instance);
  // The rejected swaps left the session untouched.
  EXPECT_EQ(session->Finish().assignment.size(), baseline.size());
}

TEST(GuideSwapTest, GuideFreeBaselineDeclinesSwap) {
  const Instance instance = MakeExample1Instance();
  SimpleGreedy greedy;
  auto session = greedy.StartSession(instance);
  EXPECT_FALSE(session->SwapGuide(BuildGuide(instance)));
  FeedAll(*session, instance);
  EXPECT_GT(session->Finish().assignment.size(), 0u);
}

TEST(GuideSwapTest, ShardedBroadcastCountsAdoptionsPerShard) {
  const Instance instance = MakeExample1Instance();
  const auto guide = BuildGuide(instance);
  PolarOp polar_op(guide);
  for (const int num_threads : {1, 3}) {
    ShardedOptions options;
    options.num_shards = 3;
    options.num_threads = num_threads;
    ShardedDispatcher dispatcher(&polar_op, options);
    auto session = dispatcher.StartSession(instance);
    const std::vector<ArrivalEvent> events = BuildArrivalStream(instance);
    const size_t half = events.size() / 2;
    for (size_t i = 0; i < events.size(); ++i) {
      if (i == half) {
        session->AdvanceTo(events[i].time);
        session->SwapGuide(BuildGuide(instance));
      }
      if (events[i].kind == ObjectKind::kWorker) {
        session->OnWorker(events[i].index, events[i].time);
      } else {
        session->OnTask(events[i].index, events[i].time);
      }
    }
    auto result = session->Finish();
    ASSERT_TRUE(result.ok()) << result.status();
    // Every shard session adopted the broadcast swap exactly once.
    EXPECT_EQ(result.value().metrics.guide_swaps, 3);
  }
}

TEST(GuideSwapTest, ShardedSwapIsDeterministicAcrossThreadCounts) {
  const Instance instance = MakeExample1Instance();
  const auto guide = BuildGuide(instance);
  PolarOp polar_op(guide);
  std::vector<std::vector<MatchedPair>> runs;
  for (const int num_threads : {1, 3}) {
    ShardedOptions options;
    options.num_shards = 3;
    options.num_threads = num_threads;
    ShardedDispatcher dispatcher(&polar_op, options);
    auto session = dispatcher.StartSession(instance);
    const std::vector<ArrivalEvent> events = BuildArrivalStream(instance);
    const size_t half = events.size() / 2;
    for (size_t i = 0; i < events.size(); ++i) {
      if (i == half) {
        session->AdvanceTo(events[i].time);
        session->SwapGuide(BuildGuide(instance));
      }
      if (events[i].kind == ObjectKind::kWorker) {
        session->OnWorker(events[i].index, events[i].time);
      } else {
        session->OnTask(events[i].index, events[i].time);
      }
    }
    auto result = session->Finish();
    ASSERT_TRUE(result.ok()) << result.status();
    runs.push_back(result.value().assignment.pairs());
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (size_t i = 0; i < runs[0].size(); ++i) {
    EXPECT_EQ(runs[0][i].worker, runs[1][i].worker);
    EXPECT_EQ(runs[0][i].task, runs[1][i].task);
  }
}

}  // namespace
}  // namespace ftoa
