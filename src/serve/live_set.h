// LiveSet: the serving harness's one owner of live objects. It holds every
// admitted worker and task that can still be offered to a segment
// session, in session arrival order, plus the deadline structure that
// counts window-boundary expiries.
//
// Life of a segment (serve/service_harness drives it in this order):
//
//   ExpireUpTo(w)        pops every deadline <= w and flags its entry;
//   StartSegment(w, d)   drops the flagged entries, re-times the survivors
//                        onto day d's axis when d changed, and restores
//                        arrival order: the carryover;
//   Admit(...)           appends the window's admissions (already in
//                        arrival order); ExpireUpTo runs between windows;
//   SealUniverse()       merges carryover and admissions into the segment
//                        universe the session replays;
//   TakeMatches(mask)    drops the universe positions the replay matched
//                        and the flagged entries; the rest is the next
//                        carryover.
//
// The deadline structure holds exactly the unmatched, not yet expired
// entries (rebuilt from the survivors at every reordering), so its size
// is the live gauge. An entry that expires inside an open segment stays
// in the universe — it was live at its arrival and the replay may still
// match it — until the segment rotates. Rotation costs O(carryover +
// admissions); no object is ever looked up by id.

#ifndef FTOA_SERVE_LIVE_SET_H_
#define FTOA_SERVE_LIVE_SET_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "gen/looped_trace.h"
#include "model/arrival_stream.h"
#include "spatial/point.h"

namespace ftoa {

class LiveSet {
 public:
  struct Entry {
    int64_t stream_id = 0;
    Point location;
    double abs_start = 0.0;  ///< Arrival time on the absolute stream axis.
    double duration = 0.0;
    /// Arrival time and patience on the current segment's day axis. An
    /// entry carried over from an earlier day re-enters at 0 with its
    /// remaining patience.
    double rel_time = 0.0;
    double rel_duration = 0.0;
    int64_t window = 0;  ///< Window its feed latency is attributed to.
    ObjectKind kind = ObjectKind::kWorker;
    bool expired = false;  ///< Popped by the deadline structure.

    double Deadline() const { return abs_start + duration; }
  };

  /// Session arrival order: nondecreasing rel_time, workers before tasks
  /// at ties, lower stream ids first.
  static bool ArrivalOrder(const Entry& a, const Entry& b);

  explicit LiveSet(double day_horizon) : day_horizon_(day_horizon) {}

  /// Opens a segment at `window` of stream day `day`: drops the expired
  /// entries, re-times the survivors when the day changed, and stamps
  /// them with the window their feed latency counts toward.
  void StartSegment(int64_t window, int64_t day);

  /// Admits one arrival of the open segment. Arrivals must come in
  /// arrival order with increasing stream ids.
  void Admit(const StreamArrival& arrival, int64_t stream_id, int64_t window);

  /// Pops every live entry whose deadline is <= `time`; returns how many.
  int64_t ExpireUpTo(double time);

  /// The open segment's universe in arrival order. Positions are stable
  /// until TakeMatches, which must come next.
  const std::vector<Entry>& SealUniverse();

  /// Drops the universe positions flagged in `matched` (sized like the
  /// universe) and the entries expired during the segment.
  void TakeMatches(const std::vector<char>& matched);

  /// Unmatched entries whose deadline has not been popped.
  int64_t live() const { return static_cast<int64_t>(deadlines_.size()); }
  /// Entries held, including those expired inside the open segment.
  int64_t size() const { return static_cast<int64_t>(entries_.size()); }
  /// High-water mark of size().
  int64_t peak() const { return peak_; }
  /// Entries dropped unmatched with a deadline after the last expiry
  /// bound; nonzero is a bug (the deadline structure and the compaction
  /// disagree).
  int64_t evicted_live() const { return evicted_live_; }

 private:
  /// Drops the expired entries, and the positions flagged in `matched`
  /// when given.
  void Retain(const std::vector<char>* matched);
  void RebuildDeadlines();

  double day_horizon_;
  int64_t day_ = -1;  ///< Day the entries' rel_times are relative to.
  double day_start_ = 0.0;
  /// [0, carryover_) holds the carryover, the rest this segment's
  /// admissions; each part is in arrival order.
  std::vector<Entry> entries_;
  size_t carryover_ = 0;
  /// Min-heap of (deadline, position in entries_).
  std::vector<std::pair<double, uint32_t>> deadlines_;
  double horizon_ = 0.0;  ///< Bound of the last ExpireUpTo.
  int64_t peak_ = 0;
  int64_t evicted_live_ = 0;
};

}  // namespace ftoa

#endif  // FTOA_SERVE_LIVE_SET_H_
