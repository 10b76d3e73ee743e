#include "model/instance.h"

#include <algorithm>

namespace ftoa {

namespace {

/// Inside the closed region [0, width] x [0, height]. The upper edges are
/// valid locations (TruncatedNormal::Sample can return its upper bound
/// exactly); NaN fails every comparison.
bool InClosedRegion(const GridSpec& grid, Point p) {
  return p.x >= 0.0 && p.x <= grid.width() && p.y >= 0.0 &&
         p.y <= grid.height();
}

}  // namespace

Instance::Instance(SpacetimeSpec spacetime, double velocity,
                   std::vector<Worker> workers, std::vector<Task> tasks)
    : spacetime_(spacetime),
      velocity_(velocity),
      workers_(std::move(workers)),
      tasks_(std::move(tasks)) {
  for (size_t i = 0; i < workers_.size(); ++i) {
    workers_[i].id = static_cast<WorkerId>(i);
  }
  for (size_t i = 0; i < tasks_.size(); ++i) {
    tasks_[i].id = static_cast<TaskId>(i);
  }
}

double Instance::MaxTaskDuration() const {
  double max_duration = 0.0;
  for (const Task& r : tasks_) {
    max_duration = std::max(max_duration, r.duration);
  }
  return max_duration;
}

double Instance::MaxWorkerDuration() const {
  double max_duration = 0.0;
  for (const Worker& w : workers_) {
    max_duration = std::max(max_duration, w.duration);
  }
  return max_duration;
}

Status Instance::Validate() const {
  if (velocity_ <= 0.0) {
    return Status::InvalidArgument("Instance: velocity must be positive");
  }
  const GridSpec& grid = spacetime_.grid();
  const double horizon = spacetime_.slots().horizon();
  for (size_t i = 0; i < workers_.size(); ++i) {
    const Worker& w = workers_[i];
    if (w.id != static_cast<WorkerId>(i)) {
      return Status::Internal("Instance: worker id does not match index");
    }
    if (w.start < 0.0 || w.duration < 0.0) {
      return Status::InvalidArgument("Instance: negative worker time");
    }
    if (w.start > horizon) {
      return Status::InvalidArgument(
          "Instance: worker start beyond the horizon");
    }
    if (!InClosedRegion(grid, w.location)) {
      return Status::InvalidArgument("Instance: worker outside the region");
    }
  }
  for (size_t i = 0; i < tasks_.size(); ++i) {
    const Task& r = tasks_[i];
    if (r.id != static_cast<TaskId>(i)) {
      return Status::Internal("Instance: task id does not match index");
    }
    if (r.start < 0.0 || r.duration < 0.0) {
      return Status::InvalidArgument("Instance: negative task time");
    }
    if (r.start > horizon) {
      return Status::InvalidArgument(
          "Instance: task start beyond the horizon");
    }
    if (!InClosedRegion(grid, r.location)) {
      return Status::InvalidArgument("Instance: task outside the region");
    }
  }
  return Status::OK();
}

std::pair<std::vector<int>, std::vector<int>> Instance::CountsPerType() const {
  std::vector<int> worker_counts(
      static_cast<size_t>(spacetime_.num_types()), 0);
  std::vector<int> task_counts(worker_counts.size(), 0);
  for (const Worker& w : workers_) {
    ++worker_counts[static_cast<size_t>(
        spacetime_.TypeOf(w.location, w.start))];
  }
  for (const Task& r : tasks_) {
    ++task_counts[static_cast<size_t>(
        spacetime_.TypeOf(r.location, r.start))];
  }
  return {std::move(worker_counts), std::move(task_counts)};
}

}  // namespace ftoa
