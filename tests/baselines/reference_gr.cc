#include "baselines/reference_gr.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>
#include <vector>

#include "flow/hopcroft_karp.h"
#include "retrieval/waiting_pool.h"

namespace ftoa {
namespace testing {
namespace {

struct PendingArrival {
  double time = 0.0;
  bool is_worker = false;
  int32_t id = -1;
};

// The product session's windowing (arrivals buffered in stream order, a
// window processed once a strictly later timestamp, AdvanceTo or Flush
// proves it closed), with a from-scratch Hopcroft-Karp over the whole pool
// at each boundary.
class ReferenceGrSession final : public AssignmentSessionBase {
 public:
  ReferenceGrSession(const Instance& instance, const GrBatchOptions& options,
                     std::atomic<int64_t>* rebuilds)
      : AssignmentSessionBase(instance),
        options_(options),
        rebuilds_(rebuilds),
        window_(options.window > 0.0
                    ? options.window
                    : 0.25 *
                          instance.spacetime().slots().slot_duration()),
        num_windows_(static_cast<int>(std::ceil(
                         (instance.spacetime().slots().horizon() +
                          instance.MaxTaskDuration()) /
                         window_)) +
                     1),
        max_dr_(instance.MaxTaskDuration()),
        task_index_(instance.spacetime().grid(), &trace_.retrieval) {}

  void OnWorker(WorkerId worker, double time) override {
    CatchUpTo(time);
    pending_.push_back(PendingArrival{time, true, worker});
  }

  void OnTask(TaskId task, double time) override {
    CatchUpTo(time);
    pending_.push_back(PendingArrival{time, false, task});
  }

  void AdvanceTo(double time) override { CatchUpTo(time); }

  void Flush() override {
    while (next_window_ <= num_windows_) ProcessWindow(next_window_++);
  }

 private:
  double boundary_of(int k) const { return k * window_; }

  void CatchUpTo(double time) {
    while (next_window_ <= num_windows_ &&
           boundary_of(next_window_) < time) {
      ProcessWindow(next_window_++);
    }
  }

  void ProcessWindow(int k) {
    const double boundary = boundary_of(k);
    const double velocity = instance().velocity();

    // Absorb every arrival up to this boundary.
    while (!pending_.empty() && pending_.front().time <= boundary) {
      const PendingArrival& arrival = pending_.front();
      if (arrival.is_worker) {
        pool_workers_.push_back(static_cast<WorkerId>(arrival.id));
      } else {
        const Task& r = instance().task(static_cast<TaskId>(arrival.id));
        pool_tasks_.push_back(r.id);
        task_index_.Insert(r.id, r.location, r.start, r.Deadline());
      }
      pending_.pop_front();
    }

    // Evict expired objects.
    auto worker_dead = [&](WorkerId id) {
      return instance().worker(id).Deadline() <= boundary;
    };
    auto task_dead = [&](TaskId id) {
      // A task is hopeless once even a co-located worker departing now
      // would miss its deadline.
      return instance().task(id).Deadline() < boundary;
    };
    pool_workers_.erase(
        std::remove_if(pool_workers_.begin(), pool_workers_.end(),
                       worker_dead),
        pool_workers_.end());
    for (size_t i = 0; i < pool_tasks_.size();) {
      if (task_dead(pool_tasks_[i])) {
        task_index_.Erase(pool_tasks_[i]);
        pool_tasks_[i] = pool_tasks_.back();
        pool_tasks_.pop_back();
      } else {
        ++i;
      }
    }
    if (pool_workers_.empty() || pool_tasks_.empty()) return;

    // Build the batch bipartite graph. Workers depart at the boundary, so
    // an edge requires boundary + d <= Sr + Dr and Sr < Sw + Dw.
    std::unordered_map<int64_t, int32_t> task_slot;  // TaskId -> right index.
    std::vector<TaskId> right_tasks;
    // Hopcroft-Karp needs right-side cardinality up front; build edges
    // first.
    struct PendingEdge {
      int32_t left;
      TaskId task;
    };
    std::vector<PendingEdge> pending_edges;
    pending_edges.reserve(4 * pool_workers_.size());
    for (size_t wi = 0; wi < pool_workers_.size(); ++wi) {
      const Worker& w = instance().worker(pool_workers_[wi]);
      // Pool tasks arrived at or before the boundary, so the arrival
      // condition boundary + d/v <= Sr + Dr implies d <= max_dr * v.
      task_index_.ForEachInDisk(
          w.location, max_dr_ * velocity, [&](int64_t task_id, double d) {
            const Task& r = instance().task(static_cast<TaskId>(task_id));
            if (!(r.start < w.Deadline())) return;
            if (options_.policy ==
                FeasibilityPolicy::kDispatchAtAssignmentTime) {
              // The batch decision is made at the boundary; the worker
              // departs then.
              if (boundary + d / velocity > r.Deadline()) return;
            } else if (!CanServe(w, r, velocity, options_.policy)) {
              return;
            }
            pending_edges.push_back(
                PendingEdge{static_cast<int32_t>(wi),
                            static_cast<TaskId>(task_id)});
          });
    }
    if (pending_edges.empty()) return;
    for (const PendingEdge& edge : pending_edges) {
      if (task_slot.find(edge.task) == task_slot.end()) {
        task_slot[edge.task] = static_cast<int32_t>(right_tasks.size());
        right_tasks.push_back(edge.task);
      }
    }
    rebuilds_->fetch_add(1);
    HopcroftKarp hk(static_cast<int32_t>(pool_workers_.size()),
                    static_cast<int32_t>(right_tasks.size()));
    hk.ReserveEdges(pending_edges.size());
    for (const PendingEdge& edge : pending_edges) {
      hk.AddEdge(edge.left, task_slot[edge.task]);
    }
    hk.Solve();

    // Commit the matched pairs and shrink the pools.
    std::vector<WorkerId> next_workers;
    next_workers.reserve(pool_workers_.size());
    for (size_t wi = 0; wi < pool_workers_.size(); ++wi) {
      const int32_t right = hk.MatchOfLeft(static_cast<int32_t>(wi));
      if (right >= 0) {
        const TaskId task = right_tasks[static_cast<size_t>(right)];
        assignment_.Add(pool_workers_[wi], task, boundary);
        task_index_.Erase(task);
      } else {
        next_workers.push_back(pool_workers_[wi]);
      }
    }
    pool_workers_.swap(next_workers);
    pool_tasks_.erase(
        std::remove_if(pool_tasks_.begin(), pool_tasks_.end(),
                       [&](TaskId id) {
                         return assignment_.IsTaskMatched(id);
                       }),
        pool_tasks_.end());
  }

  GrBatchOptions options_;
  std::atomic<int64_t>* rebuilds_;
  double window_;
  int num_windows_;
  int next_window_ = 1;
  std::deque<PendingArrival> pending_;
  double max_dr_;
  // Unmatched objects alive on the platform, carried across windows. Tasks
  // are indexed spatially so per-worker candidate enumeration in a batch is
  // a disk query instead of a full cross product.
  std::vector<WorkerId> pool_workers_;
  std::vector<TaskId> pool_tasks_;
  WaitingPool task_index_;
};

}  // namespace

std::unique_ptr<AssignmentSession> ReferenceGr::StartSession(
    const Instance& instance) {
  return std::make_unique<ReferenceGrSession>(instance, options_,
                                              &rebuilds_);
}

}  // namespace testing
}  // namespace ftoa
