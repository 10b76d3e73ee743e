#include "baselines/gr_batch.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <vector>

#include "flow/dynamic_matching.h"
#include "retrieval/waiting_pool.h"

namespace ftoa {

namespace {

/// An arrival buffered until its window's boundary passes.
struct PendingArrival {
  double time = 0.0;
  bool is_worker = false;
  int32_t id = -1;
};

// One DynamicBipartiteMatcher carries the pool across window boundaries.
// Key structural fact making this sound: GR commits every matched pair at
// the boundary where it was matched, so the objects carried over are
// exactly the exposed nodes of a maximum matching — which are pairwise
// non-adjacent (an edge between two exposed nodes would have been a
// length-1 augmenting path). Feasibility only tightens as the
// boundary advances, so no edge between two carried-over objects can ever
// (re)appear: every edge of a window's bipartite graph touches an object
// that arrived in that window. Hence inserting the new arrivals' nodes and
// edges and augmenting from the workers those edges touch reproduces a
// maximum matching of the full window graph, at a per-window cost
// proportional to the new arrivals' edges.
//
// Windowing: arrivals are buffered in stream order; a window k (boundary =
// k * window) is processed once the caller proves no earlier arrival can
// follow — by feeding an arrival later than the boundary, calling
// AdvanceTo past it, or flushing. A window absorbs every buffered arrival
// with time <= its boundary, so the assignment is bit-identical to the
// batch replay that drained the whole stream window by window.
class GrSession final : public AssignmentSessionBase {
 public:
  GrSession(const Instance& instance, const GrBatchOptions& options)
      : AssignmentSessionBase(instance),
        options_(options),
        window_(options.window > 0.0
                    ? options.window
                    : 0.25 *
                          instance.spacetime().slots().slot_duration()),
        num_windows_(static_cast<int>(std::ceil(
                         (instance.spacetime().slots().horizon() +
                          instance.MaxTaskDuration()) /
                         window_)) +
                     1),
        radius_(instance.MaxTaskDuration() * instance.velocity()),
        task_index_(instance.spacetime().grid(), &trace_.retrieval),
        worker_index_(instance.spacetime().grid(), &trace_.retrieval),
        worker_slot_(static_cast<size_t>(instance.num_workers()), -1),
        task_slot_(static_cast<size_t>(instance.num_tasks()), -1) {
    matcher_.ReserveNodes(static_cast<size_t>(instance.num_workers()),
                          static_cast<size_t>(instance.num_tasks()));
    // Edge volume is data dependent; seed the arena with a few candidates
    // per object so steady-state growth is amortized away.
    matcher_.ReserveEdges(4 * static_cast<size_t>(instance.num_workers() +
                                                  instance.num_tasks()));
  }

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
    // Fold the matcher instrumentation into the trace (delta-based, so
    // repeated Flush calls stay correct).
    trace_.matcher_augment_searches +=
        matcher_.augment_searches() - recorded_augment_searches_;
    recorded_augment_searches_ = matcher_.augment_searches();
  }

 private:
  double boundary_of(int k) const { return k * window_; }

  /// Processes every window whose boundary lies strictly before `time`: an
  /// arrival at exactly a boundary still belongs to that window, so the
  /// window stays open until a strictly later timestamp is seen.
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
    new_workers_.clear();
    new_tasks_.clear();
    while (!pending_.empty() && pending_.front().time <= boundary) {
      const PendingArrival& arrival = pending_.front();
      if (arrival.is_worker) {
        new_workers_.push_back(static_cast<WorkerId>(arrival.id));
      } else {
        new_tasks_.push_back(static_cast<TaskId>(arrival.id));
      }
      pending_.pop_front();
    }

    // Evict expired carried-over objects.
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
                       [&](WorkerId id) {
                         if (!worker_dead(id)) return false;
                         worker_index_.Erase(id);
                         matcher_.RemoveLeft(
                             worker_slot_[static_cast<size_t>(id)]);
                         return true;
                       }),
        pool_workers_.end());
    for (size_t i = 0; i < pool_tasks_.size();) {
      if (task_dead(pool_tasks_[i])) {
        task_index_.Erase(pool_tasks_[i]);
        matcher_.RemoveRight(
            task_slot_[static_cast<size_t>(pool_tasks_[i])]);
        pool_tasks_[i] = pool_tasks_.back();
        pool_tasks_.pop_back();
      } else {
        ++i;
      }
    }

    // Edge feasibility at this boundary. Workers depart at the boundary,
    // so an edge requires boundary + d <= Sr + Dr and Sr < Sw + Dw.
    auto edge_ok = [&](const Worker& w, const Task& r, double d) {
      if (!(r.start < w.Deadline())) return false;
      if (options_.policy == FeasibilityPolicy::kDispatchAtAssignmentTime) {
        // The batch decision is made at the boundary; the worker departs
        // then.
        return boundary + d / velocity <= r.Deadline();
      }
      return CanServe(w, r, velocity, options_.policy);
    };
    auto mark_dirty = [&](int32_t lslot) {
      if (dirty_window_[static_cast<size_t>(lslot)] == k) return;
      dirty_window_[static_cast<size_t>(lslot)] = k;
      dirty_slots_.push_back(lslot);
    };
    dirty_slots_.clear();

    // New tasks first: their edges to carried-over workers (the worker
    // index does not hold this window's workers yet, so no duplicates with
    // the new-worker pass below).
    for (TaskId id : new_tasks_) {
      if (task_dead(id)) continue;  // Expired within its arrival window.
      const Task& r = instance().task(id);
      const int32_t rslot = matcher_.AddRight();
      task_slot_[static_cast<size_t>(id)] = rslot;
      if (static_cast<size_t>(rslot) >= slot_task_.size()) {
        slot_task_.resize(static_cast<size_t>(rslot) + 1);
      }
      slot_task_[static_cast<size_t>(rslot)] = id;
      pool_tasks_.push_back(id);
      task_index_.Insert(id, r.location, r.start, r.Deadline());
      worker_index_.ForEachInDisk(
          r.location, radius_, [&](int64_t worker_id, double d) {
            const Worker& w =
                instance().worker(static_cast<WorkerId>(worker_id));
            if (edge_ok(w, r, d)) {
              const int32_t lslot = worker_slot_[static_cast<size_t>(w.id)];
              matcher_.AddEdge(lslot, rslot);
              if (dirty_window_.size() <= static_cast<size_t>(lslot)) {
                dirty_window_.resize(static_cast<size_t>(lslot) + 1, 0);
              }
              mark_dirty(lslot);
            }
          });
    }
    // Then new workers, against the full task pool (old + this window's).
    for (WorkerId id : new_workers_) {
      if (worker_dead(id)) continue;
      const Worker& w = instance().worker(id);
      const int32_t lslot = matcher_.AddLeft();
      worker_slot_[static_cast<size_t>(id)] = lslot;
      if (static_cast<size_t>(lslot) >= slot_worker_.size()) {
        slot_worker_.resize(static_cast<size_t>(lslot) + 1);
      }
      slot_worker_[static_cast<size_t>(lslot)] = id;
      if (dirty_window_.size() <= static_cast<size_t>(lslot)) {
        dirty_window_.resize(static_cast<size_t>(lslot) + 1, 0);
      }
      pool_workers_.push_back(id);
      worker_index_.Insert(id, w.location, w.start, w.Deadline());
      task_index_.ForEachInDisk(
          w.location, radius_, [&](int64_t task_id, double d) {
            const Task& r = instance().task(static_cast<TaskId>(task_id));
            if (edge_ok(w, r, d)) {
              matcher_.AddEdge(lslot,
                               task_slot_[static_cast<size_t>(r.id)]);
              mark_dirty(lslot);
            }
          });
      mark_dirty(lslot);  // New workers always get an augmentation try.
    }

    // Re-augment only for the workers the new edges touch. The pool
    // matching is empty at this point (matched pairs were committed and
    // removed), so Kuhn attempts over the dirty workers produce a maximum
    // matching of the window graph. Augment in slot (= arrival) order:
    // sequential Kuhn never un-matches an earlier root, so ties between
    // equal-cardinality matchings break toward the longest-waiting
    // workers — the same bias the rebuild-per-window oracle gets from
    // Hopcroft-Karp's pool-order processing. Without it, fresh workers win the tasks and
    // the older ones expire unmatched, which measurably lowers the total
    // matched count over a full trace.
    std::sort(dirty_slots_.begin(), dirty_slots_.end());
    for (const int32_t lslot : dirty_slots_) {
      if (matcher_.LeftActive(lslot) && matcher_.MatchOfLeft(lslot) < 0) {
        matcher_.TryAugmentLeft(lslot);
      }
    }

    // Commit the matched pairs and shrink the pools. Every matched worker
    // is dirty (augmentation started and re-routed only within this
    // window's edge set).
    bool committed = false;
    for (const int32_t lslot : dirty_slots_) {
      if (!matcher_.LeftActive(lslot)) continue;
      const int32_t rslot = matcher_.MatchOfLeft(lslot);
      if (rslot < 0) continue;
      const WorkerId wid = slot_worker_[static_cast<size_t>(lslot)];
      const TaskId tid = slot_task_[static_cast<size_t>(rslot)];
      assignment_.Add(wid, tid, boundary);
      matcher_.RemovePair(lslot, rslot);
      worker_index_.Erase(wid);
      task_index_.Erase(tid);
      committed = true;
    }
    if (committed) {
      pool_workers_.erase(
          std::remove_if(pool_workers_.begin(), pool_workers_.end(),
                         [&](WorkerId id) {
                           return !matcher_.LeftActive(
                               worker_slot_[static_cast<size_t>(id)]);
                         }),
          pool_workers_.end());
      pool_tasks_.erase(
          std::remove_if(pool_tasks_.begin(), pool_tasks_.end(),
                         [&](TaskId id) {
                           return !matcher_.RightActive(
                               task_slot_[static_cast<size_t>(id)]);
                         }),
          pool_tasks_.end());
    }
  }

  GrBatchOptions options_;
  double window_;
  int num_windows_;
  int next_window_ = 1;
  std::deque<PendingArrival> pending_;

  double radius_;
  // Unmatched objects alive on the platform, carried across windows. Both
  // sides are spatially indexed: tasks for the new-worker edge queries,
  // workers for the new-task edge queries.
  std::vector<WorkerId> pool_workers_;
  std::vector<TaskId> pool_tasks_;
  WaitingPool task_index_;
  WaitingPool worker_index_;
  DynamicBipartiteMatcher matcher_;  // Left = workers, right = tasks.
  std::vector<int32_t> worker_slot_;
  std::vector<int32_t> task_slot_;
  std::vector<WorkerId> slot_worker_;
  std::vector<TaskId> slot_task_;
  // Workers whose candidate set changed this window (new arrivals plus
  // carried-over workers adjacent to a new task); matched by window number.
  std::vector<int32_t> dirty_slots_;
  std::vector<int32_t> dirty_window_;
  std::vector<WorkerId> new_workers_;
  std::vector<TaskId> new_tasks_;
  int64_t recorded_augment_searches_ = 0;
};

}  // namespace

GrBatch::GrBatch(GrBatchOptions options) : options_(options) {}

std::unique_ptr<AssignmentSession> GrBatch::StartSession(
    const Instance& instance) {
  return std::make_unique<GrSession>(instance, options_);
}

}  // namespace ftoa
