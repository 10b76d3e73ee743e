#include "baselines/offline_opt.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "flow/hopcroft_karp.h"
#include "retrieval/waiting_pool.h"

namespace ftoa {

namespace {

/// Maximum-cardinality matching over all feasible pairs among the *fed*
/// objects (the paper's OPT when the whole stream was fed). Membership is
/// tested while iterating in instance order, so feeding the full universe
/// yields exactly the classic full-instance solve, edge order included.
void SolveOffline(const Instance& instance,
                  const std::vector<uint8_t>& worker_fed,
                  const std::vector<uint8_t>& task_fed,
                  Assignment* assignment, RetrievalStats* stats) {
  const double velocity = instance.velocity();
  if (instance.num_workers() == 0 || instance.num_tasks() == 0) return;

  // Index tasks by location; for worker w the deadline constraint bounds
  // candidate tasks to d <= (Dr + Sr - Sw) * v with Sr - Sw < Dw, i.e. a
  // disk of radius (max_dr + Dw) * v. Every task is stored with start 0,
  // so each cell bucket stays in id (= insertion) order and the disk
  // queries enumerate (cell, id): Hopcroft-Karp sees the edges in the
  // instance's order. Condition (2), Sr + Dr >= Sw + d / v, rules out a
  // task whose deadline is before Sw, so each query prunes those.
  WaitingPool task_index(instance.spacetime().grid(), stats);
  for (const Task& r : instance.tasks()) {
    if (task_fed[static_cast<size_t>(r.id)]) {
      task_index.Insert(r.id, r.location, 0.0, r.Deadline());
    }
  }
  const double max_dr = instance.MaxTaskDuration();

  // Enumerate the pruned feasible edges once (the spatial query plus
  // CanServe dominates construction), then hand the matcher an
  // exactly-sized edge arena.
  std::vector<std::pair<WorkerId, TaskId>> edges;
  edges.reserve(static_cast<size_t>(instance.num_workers()) * 4);
  for (const Worker& w : instance.workers()) {
    if (!worker_fed[static_cast<size_t>(w.id)]) continue;
    const double radius = (max_dr + w.duration) * velocity;
    task_index.ForEachInDisk(
        w.location, radius, w.start, StartWindow{}, [&](int64_t id, double) {
          const Task& r = instance.task(static_cast<TaskId>(id));
          if (CanServe(w, r, velocity,
                       FeasibilityPolicy::kDispatchAtWorkerStart)) {
            edges.emplace_back(w.id, r.id);
          }
        });
  }
  HopcroftKarp matcher(static_cast<int32_t>(instance.num_workers()),
                       static_cast<int32_t>(instance.num_tasks()));
  matcher.ReserveEdges(edges.size());
  for (const auto& [w, r] : edges) matcher.AddEdge(w, r);
  matcher.Solve();

  for (const Worker& w : instance.workers()) {
    const int32_t task = matcher.MatchOfLeft(w.id);
    if (task >= 0) {
      // The decision time of an offline pair is when both sides are known.
      const double decision = std::max(w.start, instance.task(task).start);
      assignment->Add(w.id, task, decision);
    }
  }
}

/// Buffering session: OPT records which objects arrived and solves the
/// maximum matching over exactly that sub-universe on the first Flush.
/// Run() feeds the whole instance, reproducing the classic full-instance
/// optimum; a sharded dispatcher feeds each shard session only its routed
/// objects, so per-shard OPT solves disjoint sub-instances whose union
/// merges without conflicts.
class OfflineOptSession final : public AssignmentSessionBase {
 public:
  explicit OfflineOptSession(const Instance& instance)
      : AssignmentSessionBase(instance),
        worker_fed_(instance.num_workers(), 0),
        task_fed_(instance.num_tasks(), 0) {}

  void OnWorker(WorkerId worker, double time) override {
    (void)time;
    worker_fed_[static_cast<size_t>(worker)] = 1;
  }
  void OnTask(TaskId task, double time) override {
    (void)time;
    task_fed_[static_cast<size_t>(task)] = 1;
  }

  void Flush() override {
    if (solved_) return;
    solved_ = true;
    SolveOffline(instance(), worker_fed_, task_fed_, &assignment_,
                 &trace_.retrieval);
  }

 private:
  std::vector<uint8_t> worker_fed_;
  std::vector<uint8_t> task_fed_;
  bool solved_ = false;
};

}  // namespace

std::unique_ptr<AssignmentSession> OfflineOpt::StartSession(
    const Instance& instance) {
  return std::make_unique<OfflineOptSession>(instance);
}

}  // namespace ftoa
