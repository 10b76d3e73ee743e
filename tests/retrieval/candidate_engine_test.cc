// Unit + randomized oracle tests for the shared candidate-retrieval
// engine. The load-bearing property is canonical-output equivalence: for
// any insert/erase history and any query, TopK must return exactly the
// (distance, id)-sorted prefix a linear scan over the live entries would —
// the contract every ported algorithm's bit-identity rests on. TopKInCells
// must return the same prefix restricted to its listed cells. The
// *Stress* suite re-runs under `ctest -L stress` with FTOA_STRESS_ITERS.

#include "retrieval/candidate_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "retrieval/stats.h"
#include "test_util.h"
#include "util/rng.h"

namespace ftoa {
namespace {

using ftoa::testing::StressIterations;

GridSpec MakeGrid() { return GridSpec(100.0, 100.0, 10, 10); }

RetrievalCandidate Entry(int64_t id, double x, double y, double start,
                         double deadline) {
  return RetrievalCandidate{id, {x, y}, start, deadline};
}

/// The linear-scan oracle: every live entry, every predicate applied
/// directly, sorted canonically, truncated to k. Any divergence from this
/// is an engine bug.
template <typename FilterFn>
std::vector<ScoredCandidate> OracleTopK(const CandidateStore& store,
                                        Point origin, double max_distance,
                                        size_t k, double query_time,
                                        StartWindow window,
                                        FilterFn&& filter) {
  std::vector<ScoredCandidate> hits;
  store.ForEach([&](const RetrievalCandidate& e) {
    if (e.start < window.lo || e.start > window.hi) return;
    if (e.deadline < query_time) return;
    const double d = Distance(origin, e.location);
    if (d > max_distance) return;
    if (!filter(e, d)) return;
    hits.push_back(ScoredCandidate{d, e});
  });
  std::sort(hits.begin(), hits.end(),
            [](const ScoredCandidate& a, const ScoredCandidate& b) {
              return a.distance < b.distance ||
                     (a.distance == b.distance &&
                      a.candidate.id < b.candidate.id);
            });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

bool AcceptAll(const RetrievalCandidate&, double) { return true; }

/// The cell-list query's oracle: the linear scan, also rejecting every
/// entry whose cell is not listed.
template <typename FilterFn>
std::vector<ScoredCandidate> OracleTopKInCells(
    const CandidateStore& store, const std::vector<CellId>& cells,
    Point origin, double max_distance, size_t k, double query_time,
    StartWindow window, FilterFn&& filter) {
  return OracleTopK(store, origin, max_distance, k, query_time, window,
                    [&](const RetrievalCandidate& e, double d) {
                      const CellId cell = store.grid().CellOf(e.location);
                      return std::find(cells.begin(), cells.end(), cell) !=
                                 cells.end() &&
                             filter(e, d);
                    });
}

void ExpectSameHits(const std::vector<ScoredCandidate>& got,
                    const std::vector<ScoredCandidate>& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].candidate.id, want[i].candidate.id)
        << label << " hit " << i;
    EXPECT_DOUBLE_EQ(got[i].distance, want[i].distance)
        << label << " hit " << i;
  }
}

TEST(CandidateStoreTest, InsertEraseContains) {
  CandidateStore store(MakeGrid());
  EXPECT_EQ(store.size(), 0u);
  store.Insert(Entry(1, 5.0, 5.0, 0.0, 10.0));
  store.Insert(Entry(2, 50.0, 50.0, 1.0, 10.0));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.Contains(1));
  EXPECT_TRUE(store.Erase(1));
  EXPECT_FALSE(store.Contains(1));
  EXPECT_FALSE(store.Erase(1));
  EXPECT_EQ(store.size(), 1u);
}

TEST(CandidateStoreTest, InsertOverwritesSameId) {
  CandidateStore store(MakeGrid());
  store.Insert(Entry(7, 5.0, 5.0, 0.0, 10.0));
  store.Insert(Entry(7, 95.0, 95.0, 2.0, 12.0));
  EXPECT_EQ(store.size(), 1u);
  CandidateCursor cursor(&store, nullptr);
  const RetrievalCandidate hit =
      cursor.Nearest({95.0, 95.0}, 1.0, 0.0, StartWindow{}, AcceptAll);
  EXPECT_EQ(hit.id, 7);
  EXPECT_EQ(hit.start, 2.0);
}

TEST(CandidateStoreTest, OutOfOrderInsertKeepsBucketSorted) {
  // All four land in one cell with descending starts — the sorted-insert
  // slow path. The window binary search only works if the invariant held.
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 5.0, 5.0, 8.0, 20.0));
  store.Insert(Entry(2, 6.0, 5.0, 4.0, 20.0));
  store.Insert(Entry(3, 5.0, 6.0, 2.0, 20.0));
  store.Insert(Entry(4, 6.0, 6.0, 6.0, 20.0));
  const auto& bucket = store.bucket(store.grid().CellOf({5.0, 5.0}));
  for (size_t i = 1; i < bucket.size(); ++i) {
    EXPECT_LE(bucket[i - 1].start, bucket[i].start);
  }
  CandidateCursor cursor(&store, nullptr);
  const auto& hits = cursor.TopK({5.0, 5.0}, 50.0, 4, 0.0,
                                 StartWindow{3.0, 7.0}, AcceptAll);
  ASSERT_EQ(hits.size(), 2u);  // Only starts 4 and 6 are in-window.
  EXPECT_EQ(hits[0].candidate.id, 2);
  EXPECT_EQ(hits[1].candidate.id, 4);
}

TEST(CandidateCursorTest, EmptyStoreAndZeroKReturnNothing) {
  CandidateStore store(MakeGrid());
  RetrievalStats stats;
  CandidateCursor cursor(&store, &stats);
  EXPECT_TRUE(cursor.TopK({1.0, 1.0}, 100.0, 3, 0.0, StartWindow{},
                          AcceptAll)
                  .empty());
  store.Insert(Entry(1, 5.0, 5.0, 0.0, 10.0));
  EXPECT_TRUE(cursor.TopK({1.0, 1.0}, 100.0, 0, 0.0, StartWindow{},
                          AcceptAll)
                  .empty());
  EXPECT_EQ(cursor.Nearest({1.0, 1.0}, 100.0, 99.0, StartWindow{},
                           AcceptAll)
                .id,
            -1);  // Everything expired.
  EXPECT_EQ(stats.queries, 3);
}

TEST(CandidateCursorTest, TopKOrdersByDistanceThenId) {
  CandidateStore store(MakeGrid());
  // Two entries equidistant from the origin; the lower id must win.
  store.Insert(Entry(9, 10.0, 14.0, 0.0, 10.0));
  store.Insert(Entry(4, 10.0, 6.0, 0.0, 10.0));
  store.Insert(Entry(2, 10.0, 11.0, 0.0, 10.0));
  CandidateCursor cursor(&store, nullptr);
  const auto& hits =
      cursor.TopK({10.0, 10.0}, 100.0, 2, 0.0, StartWindow{}, AcceptAll);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].candidate.id, 2);
  EXPECT_EQ(hits[1].candidate.id, 4);  // Tie at distance 4 vs id 9.
}

TEST(CandidateCursorTest, DeadlineAtQueryTimeIsStillFeasible) {
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 5.0, 5.0, 0.0, 3.0));
  store.Insert(Entry(2, 6.0, 5.0, 0.0, 2.999));
  CandidateCursor cursor(&store, nullptr);
  const auto& hits =
      cursor.TopK({5.0, 5.0}, 100.0, 2, 3.0, StartWindow{}, AcceptAll);
  ASSERT_EQ(hits.size(), 1u);  // The strict `< query_time` prune.
  EXPECT_EQ(hits[0].candidate.id, 1);
}

TEST(CandidateCursorTest, ErasedEntriesStayInvisibleThroughCompaction) {
  CandidateStore store(MakeGrid());
  // 20 entries in one cell; erasing 16 forces CompactBucket (half the
  // bucket dead) more than once. Survivors must still be found, in order.
  for (int64_t id = 0; id < 20; ++id) {
    store.Insert(Entry(id, 5.0, 5.0 + 0.1 * static_cast<double>(id),
                       static_cast<double>(id), 100.0));
  }
  for (int64_t id = 0; id < 16; ++id) EXPECT_TRUE(store.Erase(id));
  EXPECT_EQ(store.size(), 4u);
  CandidateCursor cursor(&store, nullptr);
  const auto& hits =
      cursor.TopK({5.0, 5.0}, 100.0, 10, 0.0, StartWindow{}, AcceptAll);
  ASSERT_EQ(hits.size(), 4u);
  EXPECT_EQ(hits[0].candidate.id, 16);
  EXPECT_EQ(hits[3].candidate.id, 19);
}

TEST(CandidateCursorTest, FilterRunsAfterEnginePruning) {
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 5.0, 5.0, 0.0, 10.0));
  store.Insert(Entry(2, 6.0, 5.0, 0.0, 10.0));
  CandidateCursor cursor(&store, nullptr);
  const auto& hits =
      cursor.TopK({5.0, 5.0}, 100.0, 2, 0.0, StartWindow{},
                  [](const RetrievalCandidate& e, double) {
                    return e.id != 1;
                  });
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].candidate.id, 2);
}

TEST(CandidateCursorTest, CursorIsReusableAcrossQueriesAndRebinds) {
  CandidateStore a(MakeGrid());
  CandidateStore b(MakeGrid());
  a.Insert(Entry(1, 5.0, 5.0, 0.0, 10.0));
  b.Insert(Entry(2, 5.0, 5.0, 0.0, 10.0));
  RetrievalStats stats;
  CandidateCursor cursor(&a, &stats);
  EXPECT_EQ(cursor.Nearest({5.0, 5.0}, 10.0, 0.0, StartWindow{}, AcceptAll)
                .id,
            1);
  cursor.Bind(&b);
  EXPECT_EQ(cursor.Nearest({5.0, 5.0}, 10.0, 0.0, StartWindow{}, AcceptAll)
                .id,
            2);
  EXPECT_EQ(stats.queries, 2);
}

TEST(CandidateCursorTest, OutOfRegionPointsAreFoundFromOutOfRegionOrigins) {
  // A point beyond the region's right edge is bucketed in the edge cell of
  // its clamped location. From an origin out there too, the point is 1
  // away although the origin is 30 from the cell: cell lower bounds are
  // measured from the clamped origin, or the cell would be skipped.
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 130.0, 5.0, 0.0, 10.0));
  ASSERT_EQ(store.bucket(9).size(), 1u);
  CandidateCursor cursor(&store, nullptr);
  const Point origin{130.0, 6.0};
  const auto want =
      OracleTopK(store, origin, 10.0, 2, 0.0, StartWindow{}, AcceptAll);
  ASSERT_EQ(want.size(), 1u);
  ExpectSameHits(
      cursor.TopK(origin, 10.0, 2, 0.0, StartWindow{}, AcceptAll), want,
      "ring walk");
  ExpectSameHits(cursor.TopKInCells({9}, origin, 10.0, 2, 0.0, StartWindow{},
                                    AcceptAll),
                 want, "cell list");
}

// ------------------------------------------------- cell-list top-k query --

TEST(CandidateCursorCellsTest, EmptyListReturnsNothingAndCountsAQuery) {
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 5.0, 5.0, 0.0, 10.0));
  RetrievalStats stats;
  CandidateCursor cursor(&store, &stats);
  EXPECT_TRUE(cursor.TopKInCells({}, {5.0, 5.0}, 100.0, 3, 0.0,
                                 StartWindow{}, AcceptAll)
                  .empty());
  EXPECT_EQ(stats.queries, 1);
  EXPECT_EQ(stats.cells_visited, 0);
  EXPECT_EQ(stats.candidates_examined, 0);
}

TEST(CandidateCursorCellsTest, OnlyListedCellsAnswerInAnyOrder) {
  // One entry per cell of the bottom row (cells 0..9, 10 wide); the query
  // lists cells 7, 2, 5 in that order and in reverse.
  CandidateStore store(MakeGrid());
  for (int64_t id = 0; id < 10; ++id) {
    store.Insert(
        Entry(id, 10.0 * static_cast<double>(id) + 5.0, 5.0, 0.0, 10.0));
  }
  CandidateCursor cursor(&store, nullptr);
  for (const std::vector<CellId>& cells :
       {std::vector<CellId>{7, 2, 5}, std::vector<CellId>{5, 2, 7}}) {
    const auto& hits = cursor.TopKInCells(cells, {0.0, 5.0}, 100.0, 10, 0.0,
                                          StartWindow{}, AcceptAll);
    ASSERT_EQ(hits.size(), 3u);
    EXPECT_EQ(hits[0].candidate.id, 2);
    EXPECT_EQ(hits[1].candidate.id, 5);
    EXPECT_EQ(hits[2].candidate.id, 7);
  }
}

TEST(CandidateCursorCellsTest, CellsBeyondTheRadiusAreNotVisited) {
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 5.0, 5.0, 0.0, 10.0));    // Cell 0.
  store.Insert(Entry(2, 95.0, 95.0, 0.0, 10.0));  // Cell 99.
  RetrievalStats stats;
  CandidateCursor cursor(&store, &stats);
  const auto& hits = cursor.TopKInCells({99, 0}, {5.0, 5.0}, 20.0, 5, 0.0,
                                        StartWindow{}, AcceptAll);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].candidate.id, 1);
  // Cell 99's lower bound exceeds the radius: skipped before its bucket.
  EXPECT_EQ(stats.cells_visited, 1);
  EXPECT_EQ(stats.candidates_examined, 1);
}

TEST(CandidateCursorCellsTest, TombstonesStayInvisible) {
  CandidateStore store(MakeGrid());
  for (int64_t id = 0; id < 6; ++id) {
    store.Insert(Entry(id, 5.0 + 0.5 * static_cast<double>(id), 5.0,
                       static_cast<double>(id), 100.0));
  }
  // Two erases leave tombstones in the bucket without compacting it.
  ASSERT_TRUE(store.Erase(0));
  ASSERT_TRUE(store.Erase(3));
  ASSERT_EQ(store.bucket(0).size(), 6u);
  CandidateCursor cursor(&store, nullptr);
  const auto& hits = cursor.TopKInCells({0}, {5.0, 5.0}, 100.0, 10, 0.0,
                                        StartWindow{}, AcceptAll);
  ASSERT_EQ(hits.size(), 4u);
  EXPECT_EQ(hits[0].candidate.id, 1);
  EXPECT_EQ(hits[1].candidate.id, 2);
  EXPECT_EQ(hits[2].candidate.id, 4);
  EXPECT_EQ(hits[3].candidate.id, 5);
}

TEST(CandidateCursorCellsTest, DistanceTiesAtTheKthPlaceBreakById) {
  // (50, 50) is the corner of cells 44, 45, 54 and 55. Four entries sit at
  // distance exactly 5, one per cell, plus a nearer one in cell 55. k = 3
  // keeps the nearest and the two lowest ids of the tie, whatever the
  // order of the cells.
  CandidateStore store(MakeGrid());
  store.Insert(Entry(8, 53.0, 54.0, 0.0, 10.0));  // Cell 55.
  store.Insert(Entry(3, 46.0, 47.0, 0.0, 10.0));  // Cell 44.
  store.Insert(Entry(6, 47.0, 54.0, 0.0, 10.0));  // Cell 54.
  store.Insert(Entry(1, 54.0, 47.0, 0.0, 10.0));  // Cell 45.
  store.Insert(Entry(9, 51.0, 51.0, 0.0, 10.0));  // Cell 55.
  CandidateCursor cursor(&store, nullptr);
  for (const std::vector<CellId>& cells :
       {std::vector<CellId>{55, 44, 54, 45},
        std::vector<CellId>{45, 54, 44, 55},
        std::vector<CellId>{54, 55, 45, 44}}) {
    const auto& hits = cursor.TopKInCells(cells, {50.0, 50.0}, 100.0, 3, 0.0,
                                          StartWindow{}, AcceptAll);
    ASSERT_EQ(hits.size(), 3u);
    EXPECT_EQ(hits[0].candidate.id, 9);
    EXPECT_EQ(hits[1].candidate.id, 1);
    EXPECT_EQ(hits[2].candidate.id, 3);
    EXPECT_EQ(hits[1].distance, 5.0);
    EXPECT_EQ(hits[2].distance, 5.0);
  }
}

TEST(RetrievalStatsTest, RecordQueryFeedsHistogramAndPercentiles) {
  RetrievalStats stats;
  stats.RecordQuery(/*cells=*/1, /*examined=*/3, /*pruned=*/1);
  stats.RecordQuery(/*cells=*/1, /*examined=*/2, /*pruned=*/0);
  stats.RecordQuery(/*cells=*/40, /*examined=*/100, /*pruned=*/50);
  EXPECT_EQ(stats.queries, 3);
  EXPECT_EQ(stats.cells_visited, 42);
  EXPECT_EQ(stats.candidates_examined, 105);
  EXPECT_EQ(stats.candidates_pruned, 51);
  EXPECT_EQ(stats.max_cells_visited, 40);
  // Nearest-rank percentiles over bucket upper bounds: the median query
  // visited <= 1 cell; the p99 lands in the 40-cell query's bucket, whose
  // bound (64) is clamped to the exact witness.
  EXPECT_EQ(stats.CellsVisitedPercentile(0.50), 1);
  EXPECT_EQ(stats.CellsVisitedPercentile(0.99), 40);
  EXPECT_EQ(stats.CellsVisitedPercentile(1.0), 40);

  RetrievalStats other;
  other.RecordQuery(/*cells=*/2, /*examined=*/1, /*pruned=*/0);
  other.Absorb(stats);
  EXPECT_EQ(other.queries, 4);
  EXPECT_EQ(other.cells_visited, 44);
  EXPECT_EQ(other.max_cells_visited, 40);
}

TEST(CandidateCursorTest, StatsCountOnlyVisitedCells) {
  // One far-away entry: a tight nearest query around a distant origin must
  // not touch the occupied cell (radius lower bound) once the grid walk is
  // exhausted; examined stays 0.
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 95.0, 95.0, 0.0, 10.0));
  RetrievalStats stats;
  CandidateCursor cursor(&store, &stats);
  EXPECT_EQ(cursor.Nearest({5.0, 5.0}, 3.0, 0.0, StartWindow{}, AcceptAll)
                .id,
            -1);
  EXPECT_EQ(stats.queries, 1);
  EXPECT_EQ(stats.candidates_examined, 0);
  EXPECT_EQ(stats.cells_visited, 0);
}

TEST(CandidateCursorTest, ForEachInDiskMatchesOracleAsASet) {
  Rng rng(2024);
  CandidateStore store(MakeGrid());
  for (int64_t id = 0; id < 200; ++id) {
    store.Insert(Entry(id, rng.NextDouble(0.0, 100.0),
                       rng.NextDouble(0.0, 100.0),
                       rng.NextDouble(0.0, 10.0),
                       rng.NextDouble(5.0, 20.0)));
  }
  const Point origin{33.0, 61.0};
  const double radius = 25.0;
  const double query_time = 8.0;
  const StartWindow window{2.0, 9.0};
  CandidateCursor cursor(&store, nullptr);
  std::vector<int64_t> got;
  cursor.ForEachInDisk(origin, radius, query_time, window,
                       [&](const RetrievalCandidate& e, double) {
                         got.push_back(e.id);
                       });
  std::sort(got.begin(), got.end());
  std::vector<int64_t> want;
  store.ForEach([&](const RetrievalCandidate& e) {
    if (e.start < window.lo || e.start > window.hi) return;
    if (e.deadline < query_time) return;
    if (Distance(origin, e.location) > radius) return;
    want.push_back(e.id);
  });
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  EXPECT_FALSE(want.empty());  // The sweep actually exercised something.
}

// Spatial edge cases of both query kinds: radius limits, cell-edge
// points, the ring walk's early exit, and brute-force agreement.

TEST(CandidateStoreTest, BucketHoldsExactlyItsCellsEntries) {
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 5.0, 5.0, 0.0, 10.0));
  store.Insert(Entry(2, 6.0, 6.0, 0.0, 10.0));
  store.Insert(Entry(3, 55.0, 55.0, 0.0, 10.0));
  const auto& bucket = store.bucket(store.grid().CellOf({5.0, 5.0}));
  ASSERT_EQ(bucket.size(), 2u);
  EXPECT_EQ(bucket[0].id, 1);
  EXPECT_EQ(bucket[1].id, 2);
}

TEST(CandidateStoreTest, ErasedIdIsGoneFromQueries) {
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 5.0, 5.0, 0.0, 10.0));
  store.Insert(Entry(2, 50.0, 50.0, 0.0, 10.0));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.Erase(1));
  EXPECT_FALSE(store.Contains(1));
  EXPECT_FALSE(store.Erase(1));
  EXPECT_EQ(store.size(), 1u);
  CandidateCursor cursor(&store, nullptr);
  EXPECT_EQ(
      cursor.Nearest({5.0, 5.0}, 100.0, 0.0, StartWindow{}, AcceptAll).id, 2);
}

TEST(CandidateStoreTest, ReinsertMovesPoint) {
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 5.0, 5.0, 0.0, 10.0));
  store.Insert(Entry(1, 95.0, 95.0, 0.0, 10.0));
  EXPECT_EQ(store.size(), 1u);
  CandidateCursor cursor(&store, nullptr);
  EXPECT_EQ(
      cursor.Nearest({95.0, 95.0}, 1.0, 0.0, StartWindow{}, AcceptAll).id, 1);
  // The old location answers nothing any more.
  EXPECT_EQ(
      cursor.Nearest({5.0, 5.0}, 1.0, 0.0, StartWindow{}, AcceptAll).id, -1);
}

TEST(CandidateCursorTest, NearestAppliesFilter) {
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 10.0, 10.0, 0.0, 10.0));
  store.Insert(Entry(2, 12.0, 10.0, 0.0, 10.0));
  CandidateCursor cursor(&store, nullptr);
  EXPECT_EQ(cursor
                .Nearest({10.0, 10.0}, 50.0, 0.0, StartWindow{},
                         [](const RetrievalCandidate& e, double) {
                           return e.id != 1;
                         })
                .id,
            2);
}

TEST(CandidateCursorTest, EmptyStoreNearestReturnsMiss) {
  CandidateStore store(MakeGrid());
  CandidateCursor cursor(&store, nullptr);
  EXPECT_EQ(
      cursor.Nearest({50.0, 50.0}, 100.0, 0.0, StartWindow{}, AcceptAll).id,
      -1);
}

TEST(CandidateCursorTest, NearestBasic) {
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 10.0, 10.0, 0.0, 10.0));
  store.Insert(Entry(2, 20.0, 10.0, 0.0, 10.0));
  store.Insert(Entry(3, 90.0, 90.0, 0.0, 10.0));
  CandidateCursor cursor(&store, nullptr);
  EXPECT_EQ(
      cursor.Nearest({12.0, 10.0}, 100.0, 0.0, StartWindow{}, AcceptAll).id,
      1);
}

TEST(CandidateCursorTest, NearestRespectsMaxDistance) {
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 10.0, 10.0, 0.0, 10.0));
  CandidateCursor cursor(&store, nullptr);
  EXPECT_EQ(
      cursor.Nearest({50.0, 50.0}, 5.0, 0.0, StartWindow{}, AcceptAll).id,
      -1);
  EXPECT_EQ(
      cursor.Nearest({50.0, 50.0}, 100.0, 0.0, StartWindow{}, AcceptAll).id,
      1);
}

TEST(CandidateCursorTest, ForEachInDiskFindsAllWithinRadius) {
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 50.0, 50.0, 0.0, 10.0));
  store.Insert(Entry(2, 53.0, 50.0, 0.0, 10.0));
  store.Insert(Entry(3, 50.0, 56.0, 0.0, 10.0));
  store.Insert(Entry(4, 90.0, 90.0, 0.0, 10.0));
  CandidateCursor cursor(&store, nullptr);
  std::vector<int64_t> found;
  cursor.ForEachInDisk({50.0, 50.0}, 5.0, 0.0, StartWindow{},
                       [&](const RetrievalCandidate& e, double) {
                         found.push_back(e.id);
                       });
  std::sort(found.begin(), found.end());
  EXPECT_EQ(found, (std::vector<int64_t>{1, 2}));
}

TEST(CandidateCursorTest, InfiniteRadiusScansEverything) {
  // "Scan all" callers pass an unbounded radius; the cell-range
  // arithmetic must stay finite and cover the whole grid.
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 5.0, 5.0, 0.0, 10.0));
  store.Insert(Entry(2, 95.0, 95.0, 0.0, 10.0));
  CandidateCursor cursor(&store, nullptr);
  int count = 0;
  cursor.ForEachInDisk({0.0, 0.0}, std::numeric_limits<double>::max(), 0.0,
                       StartWindow{},
                       [&](const RetrievalCandidate&, double) { ++count; });
  EXPECT_EQ(count, 2);
  const auto& hits = cursor.TopK(
      {0.0, 0.0}, std::numeric_limits<double>::infinity(), 5, 0.0,
      StartWindow{}, AcceptAll);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].candidate.id, 1);
  EXPECT_EQ(hits[1].candidate.id, 2);
}

TEST(CandidateCursorTest, EmptyStoreDiskQueryVisitsNothing) {
  CandidateStore store(MakeGrid());
  RetrievalStats stats;
  CandidateCursor cursor(&store, &stats);
  int count = 0;
  cursor.ForEachInDisk({50.0, 50.0}, 100.0, 0.0, StartWindow{},
                       [&](const RetrievalCandidate&, double) { ++count; });
  EXPECT_EQ(count, 0);
  EXPECT_EQ(stats.queries, 1);
  EXPECT_EQ(stats.cells_visited, 0);
}

TEST(CandidateCursorTest, ZeroRadiusHitsOnlyExactlyCoincidentPoints) {
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 50.0, 50.0, 0.0, 10.0));
  store.Insert(Entry(2, 50.0, 50.0 + 1e-9, 0.0, 10.0));
  CandidateCursor cursor(&store, nullptr);
  std::vector<int64_t> found;
  cursor.ForEachInDisk({50.0, 50.0}, 0.0, 0.0, StartWindow{},
                       [&](const RetrievalCandidate& e, double d) {
                         EXPECT_EQ(d, 0.0);
                         found.push_back(e.id);
                       });
  EXPECT_EQ(found, (std::vector<int64_t>{1}));
  // Nearest with max_distance 0 behaves the same way.
  EXPECT_EQ(
      cursor.Nearest({50.0, 50.0}, 0.0, 0.0, StartWindow{}, AcceptAll).id,
      1);
  EXPECT_EQ(
      cursor.Nearest({51.0, 50.0}, 0.0, 0.0, StartWindow{}, AcceptAll).id,
      -1);
}

TEST(CandidateCursorTest, RingBoundaryPointsAreNeverDropped) {
  // Points sitting exactly on cell edges and corners (the 10-unit grid
  // lines) must be found both as nearest neighbors and by disk queries
  // whose radius lands exactly on the point — no strict-inequality slip
  // at either the CellOf bucketing or the DistanceToCell lower bound.
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 10.0, 10.0, 0.0, 10.0));  // Four-cell corner.
  store.Insert(Entry(2, 20.0, 15.0, 0.0, 10.0));  // Vertical edge.
  store.Insert(Entry(3, 15.0, 30.0, 0.0, 10.0));  // Horizontal edge.
  CandidateCursor cursor(&store, nullptr);
  const auto nearest = [&](Point origin, double max_distance) {
    return cursor.Nearest(origin, max_distance, 0.0, StartWindow{},
                          AcceptAll)
        .id;
  };
  EXPECT_EQ(nearest({10.0, 10.0}, 0.0), 1);
  EXPECT_EQ(nearest({9.999, 10.0}, 1.0), 1);
  EXPECT_EQ(nearest({20.5, 15.0}, 1.0), 2);
  std::vector<int64_t> found;
  cursor.ForEachInDisk({10.0, 15.0}, 5.0, 0.0, StartWindow{},
                       [&](const RetrievalCandidate& e, double) {
                         found.push_back(e.id);
                       });
  std::sort(found.begin(), found.end());
  EXPECT_EQ(found, (std::vector<int64_t>{1}));  // Distance exactly 5.0.
}

TEST(CandidateCursorTest, NearestCrossesCellBoundaryWhenNeighborIsCloser) {
  // Origin sits near a cell edge: the same-cell candidate is farther than
  // one just across the boundary. A walk that stopped after the origin
  // cell (or applied the ring cutoff one ring too early) would return the
  // wrong point.
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 11.0, 15.0, 0.0, 10.0));  // Same cell, distance 8.
  store.Insert(Entry(2, 20.5, 15.0, 0.0, 10.0));  // Next cell, distance 1.5.
  CandidateCursor cursor(&store, nullptr);
  EXPECT_EQ(
      cursor.Nearest({19.0, 15.0}, 50.0, 0.0, StartWindow{}, AcceptAll).id,
      2);
}

TEST(CandidateCursorTest, RingCutoffStopsExactlyAtTheProvableBound) {
  // Pins TopK's `(ring - 1) * cell_min > kth-best` early exit: with a
  // kth-best candidate at distance d, every ring r with (r - 1) * cell_min
  // <= d must still be scanned (a closer point may hide there). The ring-1
  // candidate is found first at distance ~17.7; since (2 - 1) * 10 <=
  // 17.7, ring 2 must still be walked, where the true nearest sits at
  // distance 16.1 — a cutoff firing one ring early would return id 1.
  CandidateStore store(MakeGrid());
  const Point origin{5.0, 36.0};                 // Cell (0, 3).
  store.Insert(Entry(1, 15.9, 49.9, 0.0, 10.0));  // Ring 1, ~17.7.
  store.Insert(Entry(2, 5.0, 19.9, 0.0, 10.0));   // Ring 2, 16.1.
  CandidateCursor cursor(&store, nullptr);
  const RetrievalCandidate hit =
      cursor.Nearest(origin, 50.0, 0.0, StartWindow{}, AcceptAll);
  EXPECT_EQ(hit.id, 2);
  EXPECT_NEAR(Distance(origin, hit.location), 16.1, 1e-9);
  // The same bound with k = 2: the tail is the ring-1 point, so ring 2
  // is walked and both come back in distance order.
  const auto& hits =
      cursor.TopK(origin, 50.0, 2, 0.0, StartWindow{}, AcceptAll);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].candidate.id, 2);
  EXPECT_EQ(hits[1].candidate.id, 1);
}

// Property: both query kinds agree with brute force over an independent
// copy of random point sets.
class CandidateCursorPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CandidateCursorPropertyTest, NearestMatchesBruteForce) {
  Rng rng(GetParam());
  CandidateStore store(MakeGrid());
  std::vector<RetrievalCandidate> points;
  for (int64_t i = 0; i < 200; ++i) {
    points.push_back(Entry(i, rng.NextDouble(0.0, 100.0),
                           rng.NextDouble(0.0, 100.0), 0.0, 10.0));
    store.Insert(points.back());
  }
  CandidateCursor cursor(&store, nullptr);
  for (int q = 0; q < 50; ++q) {
    const Point query{rng.NextDouble(0.0, 100.0),
                      rng.NextDouble(0.0, 100.0)};
    const double max_distance = rng.NextDouble(1.0, 60.0);
    int64_t best = -1;
    double best_d = max_distance;
    for (const RetrievalCandidate& entry : points) {
      const double d = Distance(query, entry.location);
      if (d < best_d || (d == best_d && (best < 0 || entry.id < best))) {
        best_d = d;
        best = entry.id;
      }
    }
    const RetrievalCandidate hit =
        cursor.Nearest(query, max_distance, 0.0, StartWindow{}, AcceptAll);
    EXPECT_EQ(hit.id, best) << "query " << q;
  }
}

TEST_P(CandidateCursorPropertyTest, DiskQueryMatchesBruteForce) {
  Rng rng(GetParam() ^ 0xabcdef);
  CandidateStore store(MakeGrid());
  std::vector<RetrievalCandidate> points;
  for (int64_t i = 0; i < 150; ++i) {
    points.push_back(Entry(i, rng.NextDouble(0.0, 100.0),
                           rng.NextDouble(0.0, 100.0), 0.0, 10.0));
    store.Insert(points.back());
  }
  CandidateCursor cursor(&store, nullptr);
  for (int q = 0; q < 20; ++q) {
    const Point query{rng.NextDouble(0.0, 100.0),
                      rng.NextDouble(0.0, 100.0)};
    const double radius = rng.NextDouble(0.0, 50.0);
    size_t expected = 0;
    for (const RetrievalCandidate& entry : points) {
      if (Distance(query, entry.location) <= radius) ++expected;
    }
    size_t got = 0;
    cursor.ForEachInDisk(query, radius, 0.0, StartWindow{},
                         [&](const RetrievalCandidate&, double) { ++got; });
    EXPECT_EQ(got, expected) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CandidateCursorPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// Randomized oracle equivalence over adversarial histories: interleaved
// inserts/erases/overwrites, boundary-sitting points, degenerate windows,
// and every k from 1 to a dozen. Runs once in the main suite and at
// FTOA_STRESS_ITERS scale under `ctest -L stress`.
TEST(CandidateEngineStress, TopKMatchesLinearOracle) {
  const int iterations = StressIterations(30);
  for (int iter = 0; iter < iterations; ++iter) {
    Rng rng(static_cast<uint64_t>(iter) * 0x9e3779b97f4a7c15ULL + 11);
    const GridSpec grid(100.0, 100.0,
                        2 + static_cast<int>(rng.NextBounded(12)),
                        2 + static_cast<int>(rng.NextBounded(12)));
    CandidateStore store(grid);
    RetrievalStats stats;
    CandidateCursor cursor(&store, &stats);
    int64_t next_id = 0;
    std::vector<int64_t> live;
    const int ops = 300 + static_cast<int>(rng.NextBounded(300));
    for (int op = 0; op < ops; ++op) {
      const double roll = rng.NextDouble();
      if (roll < 0.55 || live.empty()) {
        // Insert; a tenth of the points sit exactly on cell boundaries.
        double x = rng.NextDouble(0.0, 100.0);
        double y = rng.NextDouble(0.0, 100.0);
        if (rng.NextBool(0.1)) {
          x = grid.cell_width() * std::floor(x / grid.cell_width());
        }
        const double start = rng.NextDouble(0.0, 20.0);
        store.Insert(Entry(next_id, x, y, start,
                           start + rng.NextDouble(0.0, 10.0)));
        live.push_back(next_id);
        ++next_id;
      } else if (roll < 0.75) {
        const size_t pick = rng.NextBounded(live.size());
        store.Erase(live[pick]);
        live[pick] = live.back();
        live.pop_back();
      } else if (roll < 0.85) {
        // Overwrite a live id at a new location/time.
        const int64_t id = live[rng.NextBounded(live.size())];
        const double start = rng.NextDouble(0.0, 20.0);
        store.Insert(Entry(id, rng.NextDouble(0.0, 100.0),
                           rng.NextDouble(0.0, 100.0), start,
                           start + rng.NextDouble(0.0, 10.0)));
      } else {
        const Point origin{rng.NextDouble(-5.0, 105.0),
                           rng.NextDouble(-5.0, 105.0)};
        const double max_distance = rng.NextDouble(0.0, 60.0);
        const size_t k = 1 + rng.NextBounded(12);
        const double query_time = rng.NextDouble(0.0, 25.0);
        StartWindow window;
        if (rng.NextBool(0.7)) {
          window.lo = rng.NextDouble(0.0, 20.0);
          window.hi = window.lo + rng.NextDouble(0.0, 10.0);
        }
        const int64_t parity = static_cast<int64_t>(rng.NextBounded(2));
        const auto filter = [parity](const RetrievalCandidate& e, double) {
          return (e.id % 2) == parity;
        };
        const std::string label =
            "iter " + std::to_string(iter) + " op " + std::to_string(op);
        const auto& got = cursor.TopK(origin, max_distance, k, query_time,
                                      window, filter);
        const auto want = OracleTopK(store, origin, max_distance, k,
                                     query_time, window, filter);
        ExpectSameHits(got, want, label);

        // The same query over a random set of distinct cells in random
        // order (sometimes empty, sometimes every cell).
        std::vector<CellId> cells;
        const double keep = rng.NextDouble();
        for (CellId cell = 0; cell < grid.num_cells(); ++cell) {
          if (rng.NextDouble() < keep) cells.push_back(cell);
        }
        for (size_t i = cells.size(); i > 1; --i) {
          std::swap(cells[i - 1], cells[rng.NextBounded(i)]);
        }
        const auto& in_cells = cursor.TopKInCells(
            cells, origin, max_distance, k, query_time, window, filter);
        const auto want_in_cells =
            OracleTopKInCells(store, cells, origin, max_distance, k,
                              query_time, window, filter);
        ExpectSameHits(in_cells, want_in_cells, label + " cells");
      }
    }
    EXPECT_EQ(store.size(), live.size());
    EXPECT_GT(stats.queries, 0);
  }
}

}  // namespace
}  // namespace ftoa
