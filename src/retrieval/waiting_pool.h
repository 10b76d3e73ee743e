// The waiting pool of the per-arrival algorithms (greedy, TGOA, the
// POLAR-OP+G fallback) and of the batched baselines (GR, OPT): a
// CandidateStore plus one reusable CandidateCursor, keyed by object id.
// Queries prune by deadline and arrival-time window *before* the caller's
// filter runs and account per-query stats into the session's RunTrace.
//
// Nearest answers are canonical (distance, id); disk enumeration runs in
// (cell, start, id) order, a function of the live set alone.

#ifndef FTOA_RETRIEVAL_WAITING_POOL_H_
#define FTOA_RETRIEVAL_WAITING_POOL_H_

#include <cstdint>
#include <limits>

#include "retrieval/candidate_engine.h"

namespace ftoa {

/// Id-keyed CandidateStore + one cursor per pool.
class WaitingPool {
 public:
  WaitingPool(const GridSpec& grid, RetrievalStats* stats)
      : store_(grid), cursor_(&store_, stats) {}

  void Insert(int64_t id, Point location, double start, double deadline) {
    store_.Insert(RetrievalCandidate{id, location, start, deadline});
  }
  bool Erase(int64_t id) { return store_.Erase(id); }

  /// Nearest entry within `max_distance` with start in `window` and
  /// deadline >= `query_time` passing `filter(id, distance)`, or -1.
  template <typename FilterFn>
  int64_t Nearest(Point origin, double max_distance, double query_time,
                  StartWindow window, FilterFn&& filter) {
    const RetrievalCandidate hit = cursor_.Nearest(
        origin, max_distance, query_time, window,
        [&](const RetrievalCandidate& c, double d) {
          return filter(c.id, d);
        });
    return hit.id;
  }

  /// Invokes `fn(id, distance)` for every entry within `radius` with start
  /// in `window` and deadline >= `query_time`.
  template <typename Fn>
  void ForEachInDisk(Point origin, double radius, double query_time,
                     StartWindow window, Fn&& fn) {
    cursor_.ForEachInDisk(origin, radius, query_time, window,
                          [&](const RetrievalCandidate& c, double d) {
                            fn(c.id, d);
                          });
  }

  /// Disk query without time pruning: every entry within `radius`.
  template <typename Fn>
  void ForEachInDisk(Point origin, double radius, Fn&& fn) {
    ForEachInDisk(origin, radius, -std::numeric_limits<double>::infinity(),
                  StartWindow{}, fn);
  }

  /// Invokes `fn(id)` for every entry, in (cell, start, id) order.
  template <typename Fn>
  void ForEachId(Fn&& fn) const {
    store_.ForEach([&](const RetrievalCandidate& c) { fn(c.id); });
  }

 private:
  CandidateStore store_;
  CandidateCursor cursor_;
};

}  // namespace ftoa

#endif  // FTOA_RETRIEVAL_WAITING_POOL_H_
