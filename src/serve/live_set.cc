#include "serve/live_set.h"

#include <algorithm>
#include <functional>

namespace ftoa {

bool LiveSet::ArrivalOrder(const Entry& a, const Entry& b) {
  if (a.rel_time != b.rel_time) return a.rel_time < b.rel_time;
  if (a.kind != b.kind) return a.kind == ObjectKind::kWorker;
  return a.stream_id < b.stream_id;
}

void LiveSet::StartSegment(int64_t window, int64_t day) {
  Retain(nullptr);
  const bool retime = day != day_;
  day_ = day;
  day_start_ = static_cast<double>(day) * day_horizon_;
  for (Entry& entry : entries_) {
    if (retime) {
      // Recomputed from the absolute times, so surviving several day
      // boundaries gives the values a fresh derivation would.
      entry.rel_time = entry.abs_start - day_start_;
      entry.rel_duration = entry.duration;
      if (entry.rel_time < 0.0) {
        entry.rel_duration = entry.Deadline() - day_start_;
        entry.rel_time = 0.0;
      }
    }
    entry.window = window;
  }
  // Re-timing collapses earlier days' survivors onto rel_time 0, which
  // can reorder them.
  if (retime) std::sort(entries_.begin(), entries_.end(), ArrivalOrder);
  carryover_ = entries_.size();
  RebuildDeadlines();
}

void LiveSet::Admit(const StreamArrival& arrival, int64_t stream_id,
                    int64_t window) {
  deadlines_.emplace_back(arrival.Deadline(),
                          static_cast<uint32_t>(entries_.size()));
  std::push_heap(deadlines_.begin(), deadlines_.end(), std::greater<>());
  entries_.push_back(Entry{stream_id, arrival.location, arrival.time,
                           arrival.duration, arrival.time - day_start_,
                           arrival.duration, window, arrival.kind, false});
  peak_ = std::max(peak_, size());
}

int64_t LiveSet::ExpireUpTo(double time) {
  horizon_ = time;
  int64_t popped = 0;
  while (!deadlines_.empty() && deadlines_.front().first <= time) {
    entries_[deadlines_.front().second].expired = true;
    std::pop_heap(deadlines_.begin(), deadlines_.end(), std::greater<>());
    deadlines_.pop_back();
    ++popped;
  }
  return popped;
}

const std::vector<LiveSet::Entry>& LiveSet::SealUniverse() {
  std::inplace_merge(entries_.begin(),
                     entries_.begin() + static_cast<ptrdiff_t>(carryover_),
                     entries_.end(), ArrivalOrder);
  carryover_ = entries_.size();
  return entries_;
}

void LiveSet::TakeMatches(const std::vector<char>& matched) {
  Retain(&matched);
  carryover_ = entries_.size();
  RebuildDeadlines();
}

void LiveSet::Retain(const std::vector<char>* matched) {
  size_t kept = 0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    if (matched != nullptr && (*matched)[i]) continue;
    if (entry.expired) {
      // Only the deadline structure retires an unmatched entry, and only
      // once its deadline has passed.
      if (entry.Deadline() > horizon_) ++evicted_live_;
      continue;
    }
    entries_[kept++] = entry;
  }
  entries_.resize(kept);
}

void LiveSet::RebuildDeadlines() {
  deadlines_.clear();
  for (size_t i = 0; i < entries_.size(); ++i) {
    deadlines_.emplace_back(entries_[i].Deadline(), static_cast<uint32_t>(i));
  }
  std::make_heap(deadlines_.begin(), deadlines_.end(), std::greater<>());
}

}  // namespace ftoa
