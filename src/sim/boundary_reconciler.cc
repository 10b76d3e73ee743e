#include "sim/boundary_reconciler.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "flow/dynamic_matching.h"
#include "model/feasibility.h"
#include "retrieval/candidate_engine.h"

namespace ftoa {
namespace {

/// The entry of `task_type` in one worker type's capacity list (sorted by
/// task type), or end() when the pair has no capacity.
std::vector<TypeCapacity>::const_iterator FindCapacity(
    const std::vector<TypeCapacity>& capacity, TypeId task_type) {
  const auto it = std::lower_bound(
      capacity.begin(), capacity.end(), task_type,
      [](const TypeCapacity& c, TypeId t) { return c.task_type < t; });
  return it != capacity.end() && it->task_type == task_type ? it
                                                            : capacity.end();
}

}  // namespace

Result<ReconcileStats> ReconcileShardBoundary(const Instance& instance,
                                              const ShardRouter& router,
                                              const ReconcileOptions& options,
                                              Assignment* assignment) {
  ReconcileStats stats;
  if (router.num_shards() <= 1) return stats;  // No border exists.
  if (options.max_candidates_per_worker < 1) {
    return Status::InvalidArgument(
        "ReconcileOptions::max_candidates_per_worker must be >= 1");
  }

  const double velocity = instance.velocity();
  const double max_task_duration = instance.MaxTaskDuration();
  const double radius = MaxFeasibleDistance(
      max_task_duration, instance.MaxWorkerDuration(), velocity);

  // The objects the partition may have cost a match: unmatched and within
  // the feasibility radius of another shard's territory.
  std::vector<WorkerId> workers;
  std::vector<int> worker_shard;
  for (const Worker& w : instance.workers()) {
    if (assignment->IsWorkerMatched(w.id)) continue;
    if (!router.NearShardBoundary(w.location, radius)) continue;
    workers.push_back(w.id);
    worker_shard.push_back(
        router.Route(ObjectKind::kWorker, w.id, w.location));
  }
  // Boundary tasks in a CandidateStore. Guided runs bucket them on the
  // guide's grid, so a guide area *is* a store cell and a worker's query
  // walks only the cells its type has capacity in (whatever grid the
  // instance uses). Unguided runs walk the instance grid ring by ring.
  const OfflineGuide* guide = options.guide;
  const SpacetimeSpec* guide_st =
      guide != nullptr ? &guide->spacetime() : nullptr;
  CandidateStore store(guide_st != nullptr ? guide_st->grid()
                                           : instance.spacetime().grid());
  std::vector<int> task_shard_of_id(instance.num_tasks(), -1);
  std::vector<int32_t> right_of_task(instance.num_tasks(), -1);
  int64_t num_tasks = 0;
  for (const Task& r : instance.tasks()) {
    if (assignment->IsTaskMatched(r.id)) continue;
    if (!router.NearShardBoundary(r.location, radius)) continue;
    store.Insert(RetrievalCandidate{r.id, r.location, r.start, r.Deadline()});
    task_shard_of_id[static_cast<size_t>(r.id)] =
        router.Route(ObjectKind::kTask, r.id, r.location);
    right_of_task[static_cast<size_t>(r.id)] =
        static_cast<int32_t>(num_tasks);
    ++num_tasks;
  }
  stats.boundary_workers = static_cast<int64_t>(workers.size());
  stats.boundary_tasks = num_tasks;
  // No early return on zero boundary tasks: each worker still gets its
  // (empty) query or no-capacity skip, so the stats identity holds.
  if (workers.empty()) return stats;
  // right_of_task indexes tasks in id order; invert it for the commit loop.
  std::vector<TaskId> task_of_right(static_cast<size_t>(num_tasks), -1);
  for (TaskId id = 0; id < static_cast<TaskId>(instance.num_tasks());
       ++id) {
    const int32_t right = right_of_task[static_cast<size_t>(id)];
    if (right >= 0) task_of_right[static_cast<size_t>(right)] = id;
  }

  DynamicBipartiteMatcher matcher;
  matcher.ReserveNodes(workers.size(), static_cast<size_t>(num_tasks));
  matcher.ReserveEdges(workers.size() *
                       static_cast<size_t>(options.max_candidates_per_worker));
  for (size_t i = 0; i < workers.size(); ++i) matcher.AddLeft();
  for (int64_t j = 0; j < num_tasks; ++j) matcher.AddRight();

  // One augmentation per boundary worker, in worker id order, over the
  // worker's nearest feasible cross-shard candidates. The engine's top-k is
  // canonical (distance, id), so the kept edges — and hence the recovered
  // matching — are independent of scan order and of the store's grid.
  CandidateCursor cursor(&store, &stats.retrieval);
  std::vector<CellId> capacity_cells;
  for (size_t i = 0; i < workers.size(); ++i) {
    const Worker& w = instance.worker(workers[i]);
    const int shard = worker_shard[i];
    const auto cross_shard_feasible = [&](const RetrievalCandidate& entry,
                                          double) {
      return task_shard_of_id[static_cast<size_t>(entry.id)] != shard &&
             CanServe(w, instance.task(static_cast<TaskId>(entry.id)),
                      velocity, options.policy);
    };
    // Arrival-time window implied by the deadline predicate (either
    // policy): Sr < Sw + Dw, and the travel-time condition forces
    // Sr >= Sw - Dr. A superset window; CanServe stays the authority.
    // Querying at w.start is safe: a task gone before the worker even
    // starts cannot be served under either policy.
    const size_t k = static_cast<size_t>(options.max_candidates_per_worker);
    const StartWindow window{w.start - max_task_duration,
                             w.start + w.duration};
    const std::vector<ScoredCandidate>* candidates = nullptr;
    if (guide_st == nullptr) {
      candidates = &cursor.TopK(w.location, radius, k, w.start, window,
                                cross_shard_feasible);
    } else {
      // A task passes the capacity test only if its type — (slot, area) —
      // has capacity under the worker's type, so only those areas can
      // hold a candidate. A worker whose type has none is never queried.
      const std::vector<TypeCapacity>& capacity =
          guide->CapacityOfWorkerType(guide_st->TypeOf(w.location, w.start));
      if (capacity.empty()) {
        ++stats.no_capacity_workers;
        continue;
      }
      capacity_cells.clear();
      for (const TypeCapacity& c : capacity) {
        capacity_cells.push_back(guide_st->AreaOfType(c.task_type));
      }
      std::sort(capacity_cells.begin(), capacity_cells.end());
      capacity_cells.erase(
          std::unique(capacity_cells.begin(), capacity_cells.end()),
          capacity_cells.end());
      candidates = &cursor.TopKInCells(
          capacity_cells, w.location, radius, k, w.start, window,
          [&](const RetrievalCandidate& entry, double distance) {
            // The cell walk fixes the task's area; its slot must match too.
            return FindCapacity(capacity, guide_st->TypeOf(entry.location,
                                                           entry.start)) !=
                       capacity.end() &&
                   cross_shard_feasible(entry, distance);
          });
    }
    for (const ScoredCandidate& c : *candidates) {
      matcher.AddEdge(
          static_cast<int32_t>(i),
          right_of_task[static_cast<size_t>(c.candidate.id)]);
    }
    matcher.TryAugmentLeft(static_cast<int32_t>(i));
  }

  // Commit in worker id order, consuming guide capacity as the shards do:
  // a mutable copy of the guide's counts, taken per worker type on first
  // use (remaining_base[type] indexes the type's counts in `remaining`).
  std::vector<int32_t> remaining_base;
  std::vector<int32_t> remaining;
  if (guide_st != nullptr) {
    remaining_base.assign(static_cast<size_t>(guide_st->num_types()), -1);
  }
  for (size_t i = 0; i < workers.size(); ++i) {
    const int32_t right = matcher.MatchOfLeft(static_cast<int32_t>(i));
    if (right < 0) continue;
    const Worker& w = instance.worker(workers[i]);
    const Task& r =
        instance.task(task_of_right[static_cast<size_t>(right)]);
    if (guide_st != nullptr) {
      const TypeId worker_type = guide_st->TypeOf(w.location, w.start);
      const std::vector<TypeCapacity>& capacity =
          guide->CapacityOfWorkerType(worker_type);
      int32_t& base = remaining_base[static_cast<size_t>(worker_type)];
      if (base < 0) {
        base = static_cast<int32_t>(remaining.size());
        for (const TypeCapacity& c : capacity) remaining.push_back(c.count);
      }
      // Every kept edge passed the capacity filter, so the entry exists.
      const auto entry =
          FindCapacity(capacity, guide_st->TypeOf(r.location, r.start));
      int32_t& left = remaining[static_cast<size_t>(
          base + static_cast<int32_t>(entry - capacity.begin()))];
      if (left <= 0) {
        ++stats.capacity_dropped;
        continue;
      }
      --left;
    }
    FTOA_RETURN_NOT_OK(
        assignment->Add(w.id, r.id, std::max(w.start, r.start)));
    ++stats.recovered_pairs;
  }
  return stats;
}

}  // namespace ftoa
