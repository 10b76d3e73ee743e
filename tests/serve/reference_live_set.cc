#include "serve/reference_live_set.h"

#include <algorithm>

namespace ftoa {

void ReferenceLiveSet::StartSegment(int64_t window, int64_t day) {
  segment_begin_ = window;
  day_ = day;
  admitted_.clear();
  carryover_.clear();
  const double now = static_cast<double>(window);
  for (const auto& [stream_id, record] : records_) {
    if (!record.matched && record.Deadline() > now) {
      carryover_.push_back(stream_id);
    }
  }
}

void ReferenceLiveSet::Admit(const StreamArrival& arrival, int64_t stream_id,
                             int64_t window) {
  records_.emplace(stream_id, Record{arrival.kind, arrival.location,
                                     arrival.time, arrival.duration, false});
  deadline_heap_.emplace(arrival.Deadline(), stream_id);
  ++live_;
  admitted_.emplace_back(stream_id, window);
}

int64_t ReferenceLiveSet::ExpireUpTo(double time) {
  int64_t evicted = 0;
  while (!deadline_heap_.empty() && deadline_heap_.top().first <= time) {
    Record& record = records_.at(deadline_heap_.top().second);
    deadline_heap_.pop();
    record.popped = true;
    if (!record.matched) {
      --live_;
      ++evicted;
    }
  }
  return evicted;
}

const std::vector<LiveSet::Entry>& ReferenceLiveSet::Universe() {
  const double day_start = static_cast<double>(day_) * day_horizon_;
  universe_.clear();
  const auto add = [&](int64_t stream_id, const Record& record,
                       double rel_start, double duration, int64_t window) {
    universe_.push_back(LiveSet::Entry{
        stream_id, record.location, record.abs_start, record.duration,
        rel_start, duration, window, record.kind, false});
  };
  for (const int64_t stream_id : carryover_) {
    const Record& record = records_.at(stream_id);
    // A previous-day survivor re-enters at the day boundary with its
    // remaining patience; same-day carryover keeps its true start.
    double rel_start = record.abs_start - day_start;
    double duration = record.duration;
    if (rel_start < 0.0) {
      duration = record.Deadline() - day_start;
      rel_start = 0.0;
    }
    if (duration <= 0.0) continue;
    add(stream_id, record, rel_start, duration, segment_begin_);
  }
  for (const auto& [stream_id, window] : admitted_) {
    const Record& record = records_.at(stream_id);
    add(stream_id, record, record.abs_start - day_start, record.duration,
        window);
  }
  std::sort(universe_.begin(), universe_.end(), LiveSet::ArrivalOrder);
  return universe_;
}

void ReferenceLiveSet::TakeMatches(const std::vector<char>& matched) {
  for (size_t i = 0; i < universe_.size(); ++i) {
    if (!matched[i]) continue;
    Record& record = records_.at(universe_[i].stream_id);
    if (record.matched) continue;
    record.matched = true;
    if (!record.popped) --live_;
  }
}

}  // namespace ftoa
