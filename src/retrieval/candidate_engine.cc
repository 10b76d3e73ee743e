#include "retrieval/candidate_engine.h"

namespace ftoa {

CandidateStore::CandidateStore(const GridSpec& grid)
    : grid_(grid),
      buckets_(static_cast<size_t>(grid.num_cells())),
      dead_(static_cast<size_t>(grid.num_cells()), 0) {}

void CandidateStore::Insert(const RetrievalCandidate& candidate) {
  if (Contains(candidate.id)) Erase(candidate.id);
  const CellId cell = grid_.CellOf(candidate.location);
  std::vector<RetrievalCandidate>& bucket =
      buckets_[static_cast<size_t>(cell)];
  // Arrival-ordered inserts append; out-of-order inserts pay a sorted
  // insertion that keeps the (start, id) invariant (tombstones keep their
  // start, so they never break the order).
  const auto before = [](const RetrievalCandidate& a,
                         const RetrievalCandidate& b) {
    return a.start < b.start || (a.start == b.start && a.id < b.id);
  };
  if (bucket.empty() || !before(candidate, bucket.back())) {
    locator_[candidate.id] =
        Slot{cell, static_cast<int32_t>(bucket.size())};
    bucket.push_back(candidate);
    return;
  }
  const auto pos =
      std::upper_bound(bucket.begin(), bucket.end(), candidate, before);
  const int32_t offset = static_cast<int32_t>(pos - bucket.begin());
  bucket.insert(pos, candidate);
  locator_[candidate.id] = Slot{cell, offset};
  // Entries after the insertion point shifted by one.
  for (size_t i = static_cast<size_t>(offset) + 1; i < bucket.size(); ++i) {
    if (bucket[i].id >= 0) {
      locator_[bucket[i].id].offset = static_cast<int32_t>(i);
    }
  }
}

bool CandidateStore::Erase(int64_t id) {
  const auto it = locator_.find(id);
  if (it == locator_.end()) return false;
  const Slot slot = it->second;
  locator_.erase(it);
  std::vector<RetrievalCandidate>& bucket =
      buckets_[static_cast<size_t>(slot.cell)];
  bucket[static_cast<size_t>(slot.offset)].id = -1;
  int32_t& dead = dead_[static_cast<size_t>(slot.cell)];
  ++dead;
  // Compact once half the bucket is tombstones: scans stay O(live), each
  // erase pays O(1) amortized moves, and the sort order is preserved.
  if (static_cast<size_t>(dead) * 2 >= bucket.size()) {
    CompactBucket(slot.cell);
  }
  return true;
}

void CandidateStore::CompactBucket(CellId cell) {
  std::vector<RetrievalCandidate>& bucket =
      buckets_[static_cast<size_t>(cell)];
  size_t write = 0;
  for (size_t read = 0; read < bucket.size(); ++read) {
    if (bucket[read].id < 0) continue;
    if (write != read) {
      bucket[write] = bucket[read];
      locator_[bucket[write].id].offset = static_cast<int32_t>(write);
    }
    ++write;
  }
  bucket.resize(write);
  dead_[static_cast<size_t>(cell)] = 0;
}

}  // namespace ftoa
