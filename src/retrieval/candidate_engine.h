// Shared top-k feasible-candidate retrieval over the uniform grid — the
// project's one spatial index, behind every candidate scan (greedy
// baselines, TGOA's edge discovery, the POLAR fallback, GR's and OPT's
// edge enumeration, the boundary reconciler's cell walk).
//
// Design (docs/candidate_retrieval.md):
//  * CandidateStore — a dynamic point set bucketed per grid cell, each
//    bucket kept sorted by (start, id). Arrival-ordered insertion is an
//    O(1) append; erase tombstones in place (offsets stay stable) and
//    compacts a bucket when half of it is dead. The sort order is what
//    buys the per-cell *arrival-time binary search*: a query with a start
//    window [lo, hi] touches only the bucket span that can pass the
//    deadline predicate.
//  * CandidateCursor — reusable per-session query state (top-k buffer,
//    ring walk scratch, stats sink). One cursor per session amortizes all
//    allocation across that session's decisions; cursors are independent,
//    so sessions on different threads each own one.
//  * Queries run a best-first expanding-ring walk: cells are visited ring
//    by ring around the origin, each cell lower-bounded by
//    GridSpec::DistanceToCell and skipped when the bound exceeds the
//    current kth-best distance, and the walk stops when even the nearest
//    point of the next ring cannot beat the kth-best, a bound pinned
//    exactly by tests/retrieval/candidate_engine_test.cc. TopKInCells runs
//    the same per-cell scan over a caller-given cell list instead.
//  * Results are canonical: candidates are ordered by (distance, id), a
//    total order independent of scan order, so the engine's result set is
//    bit-identical to a linear scan over the same live entries — the
//    oracle equivalence the retrieval test suite enforces.
//
// Hot-path rule: every query is templated on its filter callable (enforced
// by ftoa-lint's no-std-function-hot-path check, which covers
// src/retrieval/); a query pays a direct, usually inlined, call per
// candidate.

#ifndef FTOA_RETRIEVAL_CANDIDATE_ENGINE_H_
#define FTOA_RETRIEVAL_CANDIDATE_ENGINE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "retrieval/stats.h"
#include "spatial/grid.h"
#include "spatial/point.h"

namespace ftoa {

/// One live entry of a CandidateStore: an identified point with the
/// arrival-time attributes the engine prunes on.
struct RetrievalCandidate {
  int64_t id = -1;
  Point location;
  double start = 0.0;
  double deadline = 0.0;
};

/// Inclusive arrival-time window restricting a query to entries with
/// start in [lo, hi]. The default admits everything.
struct StartWindow {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
};

/// One scored query result.
struct ScoredCandidate {
  double distance = 0.0;
  RetrievalCandidate candidate;
};

/// Dynamic candidate set bucketed per grid cell, buckets sorted by
/// (start, id). Ids must be unique among live entries; Insert overwrites.
class CandidateStore {
 public:
  explicit CandidateStore(const GridSpec& grid);

  /// Inserts an entry (O(1) amortized when starts arrive in nondecreasing
  /// order per cell — the arrival-stream case). Replaces any live entry
  /// with the same id.
  void Insert(const RetrievalCandidate& candidate);

  /// Removes an entry by id (tombstone; offsets of other entries stay
  /// valid). Returns false when absent.
  bool Erase(int64_t id);

  /// True iff `id` is currently stored.
  bool Contains(int64_t id) const { return locator_.count(id) > 0; }

  /// Number of live entries.
  size_t size() const { return locator_.size(); }

  /// Invokes `fn(const RetrievalCandidate&)` for every live entry, in
  /// (cell id, bucket position) order — deterministic given the same
  /// insert/erase history.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& bucket : buckets_) {
      for (const RetrievalCandidate& entry : bucket) {
        if (entry.id >= 0) fn(entry);
      }
    }
  }

  const GridSpec& grid() const { return grid_; }

  /// Live entries of one cell bucket in (start, id) order, tombstones
  /// included (id < 0) — the cursor's scan substrate.
  const std::vector<RetrievalCandidate>& bucket(CellId cell) const {
    return buckets_[static_cast<size_t>(cell)];
  }

 private:
  friend class CandidateCursor;

  void CompactBucket(CellId cell);

  struct Slot {
    int32_t cell;
    int32_t offset;
  };

  GridSpec grid_;
  std::vector<std::vector<RetrievalCandidate>> buckets_;
  std::vector<int32_t> dead_;  // Tombstones per bucket.
  std::unordered_map<int64_t, Slot> locator_;
};

/// Reusable per-session query state over one CandidateStore. Not
/// thread-safe; one cursor per session. All stats are accumulated into the
/// sink the cursor was constructed with (typically the session's
/// RunTrace::retrieval), so surfacing them costs nothing extra.
class CandidateCursor {
 public:
  /// `stats` may be nullptr (queries then keep only local counters).
  CandidateCursor(const CandidateStore* store, RetrievalStats* stats)
      : store_(store), stats_(stats) {}

  /// Re-targets the cursor (e.g. after a store rebuild). Scratch capacity
  /// is retained.
  void Bind(const CandidateStore* store) { store_ = store; }

  /// The k nearest live entries within `max_distance` of `origin` whose
  /// start lies in `window`, whose deadline is >= `query_time`, and which
  /// pass `filter` — any callable `bool(const RetrievalCandidate&, double
  /// distance)`. Returned in (distance, id) order; the reference is valid
  /// until the next query on this cursor.
  template <typename FilterFn>
  const std::vector<ScoredCandidate>& TopK(Point origin, double max_distance,
                                           size_t k, double query_time,
                                           StartWindow window,
                                           FilterFn&& filter) {
    topk_.clear();
    if (store_ == nullptr || store_->size() == 0 || k == 0) {
      if (stats_ != nullptr) stats_->RecordQuery(0, 0, 0);
      return topk_;
    }
    const GridSpec& grid = store_->grid();
    TopKScan scan(grid, origin, max_distance, k, query_time, window);
    const int origin_cx = grid.CellX(grid.CellOf(origin));
    const int origin_cy = grid.CellY(grid.CellOf(origin));
    const double cell_min = std::min(grid.cell_width(), grid.cell_height());
    // Any finite radius beyond the region diagonal covers every cell.
    const double reach =
        std::min(max_distance, grid.width() + grid.height());
    const int max_ring = static_cast<int>(std::ceil(reach / cell_min)) + 1;

    const auto scan_cell = [&](int cx, int cy) {
      if (grid.ValidCell(cx, cy)) ScanCell(grid.CellAt(cx, cy), &scan, filter);
    };
    for (int ring = 0; ring <= max_ring; ++ring) {
      // Ring cutoff: once full, stop when even the closest point of this
      // ring is farther than the kth-best (the ring lower bound grows by
      // one cell size per step).
      if (scan.full && static_cast<double>(ring - 1) * cell_min > scan.bound) {
        break;
      }
      if (ring == 0) {
        scan_cell(origin_cx, origin_cy);
        continue;
      }
      for (int dx = -ring; dx <= ring; ++dx) {
        scan_cell(origin_cx + dx, origin_cy - ring);
        scan_cell(origin_cx + dx, origin_cy + ring);
      }
      for (int dy = -ring + 1; dy <= ring - 1; ++dy) {
        scan_cell(origin_cx - ring, origin_cy + dy);
        scan_cell(origin_cx + ring, origin_cy + dy);
      }
    }
    if (stats_ != nullptr) {
      stats_->RecordQuery(scan.cells, scan.examined, scan.pruned);
    }
    return topk_;
  }

  /// TopK over an explicit list of distinct cells of the store's grid,
  /// visited in the given order instead of ring by ring. Same pruning (a
  /// cell whose lower bound exceeds the current kth-best is skipped) and
  /// the same canonical (distance, id) result as TopK with a filter that
  /// also rejects every entry outside `cells` — for callers that know
  /// which cells can hold an acceptable candidate (the boundary
  /// reconciler walks only the areas its guide has capacity for). An
  /// empty list returns nothing and still counts one query.
  template <typename FilterFn>
  const std::vector<ScoredCandidate>& TopKInCells(
      const std::vector<CellId>& cells, Point origin, double max_distance,
      size_t k, double query_time, StartWindow window, FilterFn&& filter) {
    topk_.clear();
    if (store_ == nullptr || store_->size() == 0 || k == 0) {
      if (stats_ != nullptr) stats_->RecordQuery(0, 0, 0);
      return topk_;
    }
    TopKScan scan(store_->grid(), origin, max_distance, k, query_time,
                  window);
    for (const CellId cell : cells) ScanCell(cell, &scan, filter);
    if (stats_ != nullptr) {
      stats_->RecordQuery(scan.cells, scan.examined, scan.pruned);
    }
    return topk_;
  }

  /// Nearest single candidate (TopK with k = 1); id -1 when none.
  template <typename FilterFn>
  RetrievalCandidate Nearest(Point origin, double max_distance,
                             double query_time, StartWindow window,
                             FilterFn&& filter) {
    const auto& hits = TopK(origin, max_distance, 1, query_time, window,
                            std::forward<FilterFn>(filter));
    return hits.empty() ? RetrievalCandidate{} : hits.front().candidate;
  }

  /// Invokes `fn(const RetrievalCandidate&, double distance)` for every
  /// live entry within `radius` whose start lies in `window` and whose
  /// deadline is >= `query_time`. Enumeration order is (cell, bucket span)
  /// — NOT canonical; callers needing determinism across backends must
  /// sort what they collect (the TGOA port sorts edge ids).
  template <typename Fn>
  void ForEachInDisk(Point origin, double radius, double query_time,
                     StartWindow window, Fn&& fn) {
    int64_t cells = 0;
    int64_t examined = 0;
    int64_t pruned = 0;
    if (store_ == nullptr || store_->size() == 0) {
      if (stats_ != nullptr) stats_->RecordQuery(cells, examined, pruned);
      return;
    }
    const GridSpec& grid = store_->grid();
    radius = std::min(radius, grid.width() + grid.height());
    const int cx_lo = std::max(
        0, static_cast<int>((origin.x - radius) / grid.cell_width()));
    const int cx_hi =
        std::min(grid.cells_x() - 1,
                 static_cast<int>((origin.x + radius) / grid.cell_width()));
    const int cy_lo = std::max(
        0, static_cast<int>((origin.y - radius) / grid.cell_height()));
    const int cy_hi =
        std::min(grid.cells_y() - 1,
                 static_cast<int>((origin.y + radius) / grid.cell_height()));
    for (int cy = cy_lo; cy <= cy_hi; ++cy) {
      for (int cx = cx_lo; cx <= cx_hi; ++cx) {
        const CellId cell = grid.CellAt(cx, cy);
        const std::vector<RetrievalCandidate>& bucket = store_->bucket(cell);
        if (bucket.empty()) continue;
        if (grid.DistanceToCell(origin, cell) > radius) continue;
        ++cells;
        auto it = WindowBegin(bucket, window.lo);
        for (; it != bucket.end() && it->start <= window.hi; ++it) {
          if (it->id < 0) continue;
          ++examined;
          if (it->deadline < query_time) {
            ++pruned;
            continue;
          }
          const double d = Distance(origin, it->location);
          if (d > radius) {
            ++pruned;
            continue;
          }
          fn(*it, d);
        }
      }
    }
    if (stats_ != nullptr) stats_->RecordQuery(cells, examined, pruned);
  }

  RetrievalStats* stats() { return stats_; }
  void set_stats(RetrievalStats* stats) { stats_ = stats; }

 private:
  /// Query parameters and pruning state of one top-k query, shared by
  /// TopK and TopKInCells.
  struct TopKScan {
    TopKScan(const GridSpec& grid, Point from, double radius, size_t count,
             double now, StartWindow starts)
        : origin(from),
          cell_origin(grid.Clamp(from)),
          k(count),
          query_time(now),
          window(starts),
          bound(radius) {}

    Point origin;
    /// Cell lower bounds are measured from the origin clamped into the
    /// region: stored points are clamped into their cells, and clamping is
    /// a projection, so the bound holds even for out-of-region objects.
    Point cell_origin;
    size_t k;
    double query_time;
    StartWindow window;
    /// The query radius until the top-k is full, then the kth-best
    /// (distance, id).
    bool full = false;
    double bound;
    int64_t tail_id = 0;
    int64_t cells = 0;
    int64_t examined = 0;
    int64_t pruned = 0;
  };

  /// Offers one cell's live, in-window, unexpired entries within the
  /// current bound to the top-k buffer.
  template <typename FilterFn>
  void ScanCell(CellId cell, TopKScan* scan, FilterFn& filter) {
    const std::vector<RetrievalCandidate>& bucket = store_->bucket(cell);
    if (bucket.empty()) return;
    // Radius lower bound: skip cells that cannot beat the current tail.
    if (store_->grid().DistanceToCell(scan->cell_origin, cell) >
        scan->bound) {
      return;
    }
    ++scan->cells;
    // The bound is kept in locals, not re-read from topk_ or *scan, so the
    // per-entry test stays in registers.
    bool full = scan->full;
    double bound = scan->bound;
    int64_t tail_id = scan->tail_id;
    int64_t examined = 0;
    int64_t pruned = 0;
    // Arrival-time binary search: the bucket is (start, id)-sorted, so the
    // window maps to one contiguous span.
    auto it = WindowBegin(bucket, scan->window.lo);
    for (; it != bucket.end() && it->start <= scan->window.hi; ++it) {
      if (it->id < 0) continue;  // Tombstone.
      ++examined;
      // Deadline prune: an entry gone before the query instant can never
      // pass either CanServe policy (strict — deadline == query_time may
      // still be feasible).
      if (it->deadline < scan->query_time) {
        ++pruned;
        continue;
      }
      const double d = Distance(scan->origin, it->location);
      if (d > bound || (full && d == bound && it->id >= tail_id)) {
        ++pruned;
        continue;
      }
      if (!filter(*it, d)) continue;
      Offer(ScoredCandidate{d, *it}, scan->k);
      if (topk_.size() == scan->k) {
        full = true;
        bound = topk_.back().distance;
        tail_id = topk_.back().candidate.id;
      }
    }
    scan->full = full;
    scan->bound = bound;
    scan->tail_id = tail_id;
    scan->examined += examined;
    scan->pruned += pruned;
  }

  /// First bucket entry with start >= `lo`. The binary search is skipped
  /// when the whole bucket is in the window — the common case, since a
  /// window reaches back a full object duration and expired entries leave.
  static std::vector<RetrievalCandidate>::const_iterator WindowBegin(
      const std::vector<RetrievalCandidate>& bucket, double lo) {
    if (bucket.front().start >= lo) return bucket.begin();
    return std::lower_bound(
        bucket.begin(), bucket.end(), lo,
        [](const RetrievalCandidate& e, double l) { return e.start < l; });
  }

  /// Sorted-insert into the top-k buffer by (distance, id); drops the
  /// overflow. O(k) — k is small (1 for nearest, single digits for the
  /// reconciler).
  void Offer(const ScoredCandidate& c, size_t k) {
    const auto less = [](const ScoredCandidate& a, const ScoredCandidate& b) {
      return a.distance < b.distance ||
             (a.distance == b.distance && a.candidate.id < b.candidate.id);
    };
    topk_.insert(std::upper_bound(topk_.begin(), topk_.end(), c, less), c);
    if (topk_.size() > k) topk_.pop_back();
  }

  const CandidateStore* store_;
  RetrievalStats* stats_;
  std::vector<ScoredCandidate> topk_;
};

}  // namespace ftoa

#endif  // FTOA_RETRIEVAL_CANDIDATE_ENGINE_H_
