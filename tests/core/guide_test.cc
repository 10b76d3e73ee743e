#include "core/guide.h"

#include <gtest/gtest.h>

#include <vector>

#include "test_util.h"

namespace ftoa {
namespace {

SpacetimeSpec MakeSpacetime() {
  return SpacetimeSpec(SlotSpec(10.0, 2), GridSpec(8.0, 8.0, 2, 2));
}

TEST(OfflineGuideTest, NodeCreationTracksTypes) {
  OfflineGuide guide(MakeSpacetime(), 1.0, 30.0, 2.0);
  const GuideNodeId w0 = guide.AddWorkerNode(2);
  const GuideNodeId w1 = guide.AddWorkerNode(2);
  const GuideNodeId r0 = guide.AddTaskNode(2);
  EXPECT_EQ(guide.num_worker_nodes(), 2);
  EXPECT_EQ(guide.num_task_nodes(), 1);
  EXPECT_EQ(guide.WorkerNodesOfType(2).size(), 2u);
  EXPECT_EQ(guide.WorkerNodesOfType(2)[0], w0);
  EXPECT_EQ(guide.WorkerNodesOfType(2)[1], w1);
  EXPECT_EQ(guide.TaskNodesOfType(2)[0], r0);
  EXPECT_TRUE(guide.WorkerNodesOfType(0).empty());
}

TEST(OfflineGuideTest, MatchNodesSetsPartners) {
  OfflineGuide guide(MakeSpacetime(), 1.0, 30.0, 2.0);
  const GuideNodeId w = guide.AddWorkerNode(2);
  const GuideNodeId r = guide.AddTaskNode(2);
  ASSERT_TRUE(guide.MatchNodes(w, r).ok());
  EXPECT_EQ(guide.worker_nodes()[0].partner, r);
  EXPECT_EQ(guide.task_nodes()[0].partner, w);
  EXPECT_EQ(guide.matched_pairs(), 1);
}

TEST(OfflineGuideTest, MatchNodesRejectsRematch) {
  OfflineGuide guide(MakeSpacetime(), 1.0, 30.0, 2.0);
  const GuideNodeId w = guide.AddWorkerNode(2);
  const GuideNodeId w2 = guide.AddWorkerNode(2);
  const GuideNodeId r = guide.AddTaskNode(2);
  ASSERT_TRUE(guide.MatchNodes(w, r).ok());
  EXPECT_FALSE(guide.MatchNodes(w2, r).ok());
  EXPECT_EQ(guide.matched_pairs(), 1);
}

TEST(OfflineGuideTest, MatchNodesRejectsBadIds) {
  OfflineGuide guide(MakeSpacetime(), 1.0, 30.0, 2.0);
  guide.AddWorkerNode(2);
  EXPECT_FALSE(guide.MatchNodes(0, 0).ok());   // No task nodes yet.
  EXPECT_FALSE(guide.MatchNodes(-1, 0).ok());
  EXPECT_FALSE(guide.MatchNodes(5, 0).ok());
}

TEST(OfflineGuideTest, MatchNodesKeepsPerWorkerTypeCapacity) {
  // Worker type 2 is matched to task types 3, 1, 3 (in that order); worker
  // type 0 has an unmatched node only. Counts come back sorted by task
  // type, and a rejected MatchNodes leaves them untouched.
  OfflineGuide guide(MakeSpacetime(), 1.0, 30.0, 2.0);
  std::vector<GuideNodeId> workers;
  for (int i = 0; i < 3; ++i) workers.push_back(guide.AddWorkerNode(2));
  guide.AddWorkerNode(0);
  const GuideNodeId r0 = guide.AddTaskNode(3);
  const GuideNodeId r1 = guide.AddTaskNode(1);
  const GuideNodeId r2 = guide.AddTaskNode(3);
  ASSERT_TRUE(guide.MatchNodes(workers[0], r0).ok());
  ASSERT_TRUE(guide.MatchNodes(workers[1], r1).ok());
  ASSERT_TRUE(guide.MatchNodes(workers[2], r2).ok());
  EXPECT_FALSE(guide.MatchNodes(3, r0).ok());

  const std::vector<TypeCapacity>& capacity = guide.CapacityOfWorkerType(2);
  ASSERT_EQ(capacity.size(), 2u);
  EXPECT_EQ(capacity[0].task_type, 1);
  EXPECT_EQ(capacity[0].count, 1);
  EXPECT_EQ(capacity[1].task_type, 3);
  EXPECT_EQ(capacity[1].count, 2);
  EXPECT_TRUE(guide.CapacityOfWorkerType(0).empty());
  EXPECT_TRUE(guide.CapacityOfWorkerType(1).empty());
}

TEST(OfflineGuideTest, ValidateAcceptsFeasiblePair) {
  // Same type: representative distance 0, always feasible.
  OfflineGuide guide(MakeSpacetime(), 1.0, 30.0, 2.0);
  const GuideNodeId w = guide.AddWorkerNode(2);
  const GuideNodeId r = guide.AddTaskNode(2);
  ASSERT_TRUE(guide.MatchNodes(w, r).ok());
  EXPECT_TRUE(guide.Validate().ok());
}

TEST(OfflineGuideTest, ValidateRejectsInfeasiblePair) {
  // Task slot 0 far cell with tiny Dr and worker in slot 1 -> the
  // representative pair violates the deadline constraint.
  OfflineGuide guide(MakeSpacetime(), 1.0, /*worker_duration=*/30.0,
                     /*task_duration=*/0.1);
  const GuideNodeId w = guide.AddWorkerNode(2);  // Slot 0, top-left.
  const GuideNodeId r = guide.AddTaskNode(1);    // Slot 0, bottom-right.
  ASSERT_TRUE(guide.MatchNodes(w, r).ok());
  EXPECT_FALSE(guide.Validate().ok());
}

}  // namespace
}  // namespace ftoa
