// ReferenceLiveSet: the serving harness's original live-object bookkeeping,
// kept as the oracle for serve/live_set. Every admitted record is kept
// forever in an id-ordered map; a (deadline, id) min-heap over all
// admissions counts expiries and flags the records it pops; a counter
// tracks the live gauge; and each segment's carryover is rebuilt from
// scratch by scanning every record, filtering out matched and expired
// ones, re-timing the survivors onto the segment's day, and sorting the
// universe by (rel_time, kind, id).
// Strictly slower than LiveSet (O(admitted-ever) per rotation) and kept
// only so the property test can pin LiveSet's carryover universes,
// eviction counts and live gauge to these semantics.

#ifndef FTOA_TESTS_SERVE_REFERENCE_LIVE_SET_H_
#define FTOA_TESTS_SERVE_REFERENCE_LIVE_SET_H_

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "gen/looped_trace.h"
#include "serve/live_set.h"

namespace ftoa {

class ReferenceLiveSet {
 public:
  explicit ReferenceLiveSet(double day_horizon) : day_horizon_(day_horizon) {}

  void StartSegment(int64_t window, int64_t day);
  void Admit(const StreamArrival& arrival, int64_t stream_id, int64_t window);
  int64_t ExpireUpTo(double time);
  /// The carryover (re-timed) plus the segment's admissions, sorted.
  const std::vector<LiveSet::Entry>& Universe();
  /// Marks the universe positions flagged in `matched` as matched.
  void TakeMatches(const std::vector<char>& matched);

  int64_t live() const { return live_; }
  /// Carryover ids captured by the last StartSegment.
  int64_t carryover_size() const {
    return static_cast<int64_t>(carryover_.size());
  }

 private:
  struct Record {
    ObjectKind kind = ObjectKind::kWorker;
    Point location;
    double abs_start = 0.0;
    double duration = 0.0;
    bool matched = false;
    bool popped = false;

    double Deadline() const { return abs_start + duration; }
  };

  double day_horizon_;
  int64_t segment_begin_ = 0;
  int64_t day_ = 0;
  std::map<int64_t, Record> records_;
  std::priority_queue<std::pair<double, int64_t>,
                      std::vector<std::pair<double, int64_t>>,
                      std::greater<std::pair<double, int64_t>>>
      deadline_heap_;
  int64_t live_ = 0;
  std::vector<int64_t> carryover_;  ///< Stream ids, ascending.
  std::vector<std::pair<int64_t, int64_t>> admitted_;  ///< (id, window).
  std::vector<LiveSet::Entry> universe_;
};

}  // namespace ftoa

#endif  // FTOA_TESTS_SERVE_REFERENCE_LIVE_SET_H_
