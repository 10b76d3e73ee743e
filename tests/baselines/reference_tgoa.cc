#include "baselines/reference_tgoa.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "flow/hopcroft_karp.h"
#include "retrieval/waiting_pool.h"

namespace ftoa {
namespace testing {
namespace {

// The same greedy phase, waiting pools and lazy expiry sweep as the product
// session; the second phase answers the guardrail "is the newcomer matched
// in a maximum matching of the revealed pool?" by building that matching
// from scratch. All enumerations are id-sorted, so slot numbering — and
// hence the solved matching — is canonical.
class ReferenceTgoaSession final : public AssignmentSessionBase {
 public:
  ReferenceTgoaSession(const Instance& instance, const TgoaOptions& options,
                       std::atomic<int64_t>* rebuilds)
      : AssignmentSessionBase(instance),
        options_(options),
        rebuilds_(rebuilds),
        greedy_phase_(static_cast<size_t>(
            static_cast<double>(instance.num_workers() +
                                instance.num_tasks()) *
            options.greedy_fraction)),
        waiting_workers_(instance.spacetime().grid(), &trace_.retrieval),
        waiting_tasks_(instance.spacetime().grid(), &trace_.retrieval),
        max_radius_(MaxFeasibleDistance(instance.MaxTaskDuration(),
                                        instance.MaxWorkerDuration(),
                                        instance.velocity())),
        max_task_duration_(instance.MaxTaskDuration()),
        max_worker_duration_(instance.MaxWorkerDuration()) {}

  void OnWorker(WorkerId worker, double time) override {
    const Worker& w = instance().worker(worker);
    TaskId partner = -1;
    if (InGreedyPhase()) {
      const int64_t hit = waiting_tasks_.Nearest(
          w.location, max_radius_, time, TaskWindow(time),
          [&](int64_t id, double) {
            const Task& r = instance().task(static_cast<TaskId>(id));
            return GreedyFeasible(w, r) && r.Deadline() >= time;
          });
      partner = hit >= 0 ? static_cast<TaskId>(hit) : -1;
    } else {
      partner = OptimalPartnerForWorker(w);
    }
    if (partner >= 0) {
      assignment_.Add(w.id, partner, time);
      waiting_tasks_.Erase(partner);
    } else {
      waiting_workers_.Insert(w.id, w.location, w.start, w.Deadline());
    }
    FinishEvent(time);
  }

  void OnTask(TaskId task, double time) override {
    const Task& r = instance().task(task);
    WorkerId partner = -1;
    if (InGreedyPhase()) {
      const int64_t hit = waiting_workers_.Nearest(
          r.location, max_radius_, time, WorkerWindow(time),
          [&](int64_t id, double) {
            const Worker& w = instance().worker(static_cast<WorkerId>(id));
            return GreedyFeasible(w, r) && w.Deadline() >= time;
          });
      partner = hit >= 0 ? static_cast<WorkerId>(hit) : -1;
    } else {
      partner = OptimalPartnerForTask(r);
    }
    if (partner >= 0) {
      assignment_.Add(partner, r.id, time);
      waiting_workers_.Erase(partner);
    } else {
      waiting_tasks_.Insert(r.id, r.location, r.start, r.Deadline());
    }
    FinishEvent(time);
  }

 private:
  bool GreedyFeasible(const Worker& w, const Task& r) const {
    return CanServe(w, r, instance().velocity(), options_.policy);
  }
  bool InGreedyPhase() const { return event_index_ < greedy_phase_; }
  StartWindow TaskWindow(double time) const {
    return StartWindow{time - max_task_duration_, time};
  }
  StartWindow WorkerWindow(double time) const {
    return StartWindow{time - max_worker_duration_, time};
  }

  /// The product session's periodic lazy expiry, in ascending id order.
  void FinishEvent(double now) {
    if ((event_index_ & 1023u) == 0u) {
      SweepExpired(waiting_workers_, now, [&](int64_t id) {
        return instance().worker(static_cast<WorkerId>(id)).Deadline();
      });
      SweepExpired(waiting_tasks_, now, [&](int64_t id) {
        return instance().task(static_cast<TaskId>(id)).Deadline();
      });
    }
    ++event_index_;
  }
  template <typename DeadlineFn>
  void SweepExpired(WaitingPool& pool, double now, DeadlineFn&& deadline_of) {
    std::vector<int64_t> expired;
    pool.ForEachId([&](int64_t id) {
      if (deadline_of(id) < now) expired.push_back(id);
    });
    std::sort(expired.begin(), expired.end());
    for (const int64_t id : expired) pool.Erase(id);
  }

  /// Feasible counterpart ids of `origin` in the given pool, ascending —
  /// the canonical edge enumeration.
  template <typename FeasibleFn>
  std::vector<int64_t> SortedCandidates(WaitingPool& pool, Point origin,
                                        double query_time,
                                        StartWindow window,
                                        FeasibleFn&& feasible) {
    std::vector<int64_t> ids;
    pool.ForEachInDisk(origin, max_radius_, query_time, window,
                       [&](int64_t id, double) {
                         if (feasible(id)) ids.push_back(id);
                       });
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  /// Solves a maximum matching whose left node 0 is the newcomer; returns
  /// the newcomer's right slot or -1.
  int32_t SolveForNewcomer(
      int32_t num_left, int32_t num_right,
      const std::vector<std::pair<int32_t, int32_t>>& edges) {
    rebuilds_->fetch_add(1);
    HopcroftKarp matcher(num_left, num_right);
    matcher.ReserveEdges(edges.size());
    for (const auto& [l, r] : edges) matcher.AddEdge(l, r);
    matcher.Solve();
    return matcher.MatchOfLeft(0);
  }

  // The new object is committed only when it is matched in a maximum
  // matching of all currently waiting (unmatched, alive) objects plus
  // itself.
  TaskId OptimalPartnerForWorker(const Worker& w) {
    std::vector<TaskId> right;
    std::unordered_map<int64_t, int32_t> right_slot;
    std::vector<std::pair<int32_t, int32_t>> edges;
    int32_t num_left = 0;

    auto right_index = [&](TaskId id) {
      const auto it = right_slot.find(id);
      if (it != right_slot.end()) return it->second;
      const int32_t slot = static_cast<int32_t>(right.size());
      right_slot[id] = slot;
      right.push_back(id);
      return slot;
    };
    // Edges from every waiting worker (including w) to feasible tasks.
    auto add_worker = [&](const Worker& candidate) {
      const int32_t lid = num_left++;
      for (const int64_t id : SortedCandidates(
               waiting_tasks_, candidate.location, candidate.start,
               TaskWindow(candidate.start), [&](int64_t task_id) {
                 return GreedyFeasible(
                     candidate,
                     instance().task(static_cast<TaskId>(task_id)));
               })) {
        edges.emplace_back(lid, right_index(static_cast<TaskId>(id)));
      }
    };
    add_worker(w);
    std::vector<int64_t> other_workers;
    waiting_workers_.ForEachId(
        [&](int64_t id) { other_workers.push_back(id); });
    std::sort(other_workers.begin(), other_workers.end());
    for (const int64_t id : other_workers) {
      add_worker(instance().worker(static_cast<WorkerId>(id)));
    }

    if (edges.empty()) return -1;
    const int32_t partner = SolveForNewcomer(
        num_left, static_cast<int32_t>(right.size()), edges);
    return partner < 0 ? -1 : right[static_cast<size_t>(partner)];
  }

  WorkerId OptimalPartnerForTask(const Task& r) {
    std::vector<WorkerId> right;
    std::unordered_map<int64_t, int32_t> right_slot;
    std::vector<std::pair<int32_t, int32_t>> edges;
    int32_t num_left = 0;

    auto right_index = [&](WorkerId id) {
      const auto it = right_slot.find(id);
      if (it != right_slot.end()) return it->second;
      const int32_t slot = static_cast<int32_t>(right.size());
      right_slot[id] = slot;
      right.push_back(id);
      return slot;
    };
    auto add_task = [&](const Task& candidate) {
      const int32_t lid = num_left++;
      for (const int64_t id : SortedCandidates(
               waiting_workers_, candidate.location, candidate.start,
               WorkerWindow(candidate.start), [&](int64_t worker_id) {
                 return GreedyFeasible(
                     instance().worker(static_cast<WorkerId>(worker_id)),
                     candidate);
               })) {
        edges.emplace_back(lid, right_index(static_cast<WorkerId>(id)));
      }
    };
    add_task(r);
    std::vector<int64_t> other_tasks;
    waiting_tasks_.ForEachId(
        [&](int64_t id) { other_tasks.push_back(id); });
    std::sort(other_tasks.begin(), other_tasks.end());
    for (const int64_t id : other_tasks) {
      add_task(instance().task(static_cast<TaskId>(id)));
    }

    if (edges.empty()) return -1;
    const int32_t partner = SolveForNewcomer(
        num_left, static_cast<int32_t>(right.size()), edges);
    return partner < 0 ? -1 : right[static_cast<size_t>(partner)];
  }

  TgoaOptions options_;
  std::atomic<int64_t>* rebuilds_;
  size_t greedy_phase_;
  size_t event_index_ = 0;
  WaitingPool waiting_workers_;
  WaitingPool waiting_tasks_;
  double max_radius_;
  double max_task_duration_;
  double max_worker_duration_;
};

}  // namespace

std::unique_ptr<AssignmentSession> ReferenceTgoa::StartSession(
    const Instance& instance) {
  return std::make_unique<ReferenceTgoaSession>(instance, options_,
                                                &rebuilds_);
}

}  // namespace testing
}  // namespace ftoa
