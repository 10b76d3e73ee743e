#include "core/guide.h"

#include <algorithm>

namespace ftoa {

OfflineGuide::OfflineGuide(SpacetimeSpec spacetime, double velocity,
                           double worker_duration, double task_duration,
                           double representative_slack)
    : spacetime_(spacetime),
      velocity_(velocity),
      worker_duration_(worker_duration),
      task_duration_(task_duration),
      representative_slack_(representative_slack),
      worker_nodes_by_type_(static_cast<size_t>(spacetime.num_types())),
      task_nodes_by_type_(static_cast<size_t>(spacetime.num_types())),
      capacity_by_worker_type_(static_cast<size_t>(spacetime.num_types())) {}

GuideNodeId OfflineGuide::AddWorkerNode(TypeId type) {
  const GuideNodeId id = static_cast<GuideNodeId>(worker_nodes_.size());
  worker_nodes_.push_back(GuideNode{type, -1});
  worker_nodes_by_type_[static_cast<size_t>(type)].push_back(id);
  return id;
}

GuideNodeId OfflineGuide::AddTaskNode(TypeId type) {
  const GuideNodeId id = static_cast<GuideNodeId>(task_nodes_.size());
  task_nodes_.push_back(GuideNode{type, -1});
  task_nodes_by_type_[static_cast<size_t>(type)].push_back(id);
  return id;
}

Status OfflineGuide::MatchNodes(GuideNodeId worker_node,
                                GuideNodeId task_node) {
  if (worker_node < 0 ||
      static_cast<size_t>(worker_node) >= worker_nodes_.size()) {
    return Status::OutOfRange("OfflineGuide: worker node out of range");
  }
  if (task_node < 0 || static_cast<size_t>(task_node) >= task_nodes_.size()) {
    return Status::OutOfRange("OfflineGuide: task node out of range");
  }
  if (worker_nodes_[static_cast<size_t>(worker_node)].partner != -1) {
    return Status::FailedPrecondition(
        "OfflineGuide: worker node already matched");
  }
  if (task_nodes_[static_cast<size_t>(task_node)].partner != -1) {
    return Status::FailedPrecondition(
        "OfflineGuide: task node already matched");
  }
  worker_nodes_[static_cast<size_t>(worker_node)].partner = task_node;
  task_nodes_[static_cast<size_t>(task_node)].partner = worker_node;
  ++matched_pairs_;
  // Capacity accounting: bump (or insert, keeping task-type order) the
  // entry of the pair's task type under the worker's type.
  const TypeId task_type = task_nodes_[static_cast<size_t>(task_node)].type;
  std::vector<TypeCapacity>& capacity = capacity_by_worker_type_
      [static_cast<size_t>(worker_nodes_[static_cast<size_t>(worker_node)]
                               .type)];
  const auto it = std::lower_bound(
      capacity.begin(), capacity.end(), task_type,
      [](const TypeCapacity& c, TypeId t) { return c.task_type < t; });
  if (it != capacity.end() && it->task_type == task_type) {
    ++it->count;
  } else {
    capacity.insert(it, TypeCapacity{task_type, 1});
  }
  return Status::OK();
}

Status OfflineGuide::Validate() const {
  for (size_t w = 0; w < worker_nodes_.size(); ++w) {
    const GuideNode& node = worker_nodes_[w];
    if (node.partner == -1) continue;
    if (static_cast<size_t>(node.partner) >= task_nodes_.size()) {
      return Status::Internal("OfflineGuide: dangling partner id");
    }
    const GuideNode& partner = task_nodes_[static_cast<size_t>(node.partner)];
    if (partner.partner != static_cast<GuideNodeId>(w)) {
      return Status::Internal("OfflineGuide: asymmetric matching");
    }
    // The generator's slack extends both deadline conditions uniformly.
    const bool feasible = CanServeAttrs(
        spacetime_.RepresentativeLocation(node.type),
        spacetime_.RepresentativeTime(node.type),
        worker_duration_ + representative_slack_,
        spacetime_.RepresentativeLocation(partner.type),
        spacetime_.RepresentativeTime(partner.type),
        task_duration_ + representative_slack_, velocity_,
        FeasibilityPolicy::kDispatchAtWorkerStart);
    if (!feasible) {
      return Status::FailedPrecondition(
          "OfflineGuide: matched pair violates type-level feasibility");
    }
  }
  return Status::OK();
}

}  // namespace ftoa
