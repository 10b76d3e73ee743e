// LiveSet against its oracle (tests/serve/reference_live_set): seeded
// scripts of admissions, window-boundary expiries, segment starts that
// cross day boundaries, early segment flushes and random match masks must
// give identical segment universes (carryover included), eviction counts
// and live gauges. The scripts use the edge cases the harness's inputs
// can contain: zero and multi-day durations, arrivals exactly on a window
// or day boundary, and ties between carryover and fresh arrivals.

#include "serve/live_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/reference_live_set.h"
#include "util/rng.h"

namespace ftoa {
namespace {

/// What the scripts exercised, summed over all of them (non-vacuity).
struct Coverage {
  int64_t universes = 0;
  int64_t evictions = 0;
  int64_t retimed = 0;            ///< Carryover entries from an earlier day.
  int64_t matched_expired = 0;    ///< Matched after expiring in-segment.
  int64_t boundary_arrivals = 0;  ///< Arrivals exactly on a window start.
};

StreamArrival DrawArrival(Rng* rng, int64_t window, int64_t spd) {
  StreamArrival arrival;
  arrival.kind = rng->NextBool() ? ObjectKind::kWorker : ObjectKind::kTask;
  const double start = static_cast<double>(window);
  arrival.time =
      rng->NextBool(0.15) ? start : rng->NextDouble(start, start + 1.0);
  arrival.location = Point{rng->NextDouble(0.0, 10.0),
                           rng->NextDouble(0.0, 10.0)};
  const double horizon = static_cast<double>(spd);
  const double durations[] = {0.0, 0.25, 1.0, 2.75, horizon,
                              1.5 * horizon + 0.3};
  arrival.duration = rng->NextBool(0.5)
                         ? durations[rng->NextBounded(6)]
                         : rng->NextDouble(0.0, 2.0 * horizon);
  return arrival;
}

void ExpectSameUniverse(const std::vector<LiveSet::Entry>& actual,
                        const std::vector<LiveSet::Entry>& expected,
                        const std::string& at) {
  ASSERT_EQ(actual.size(), expected.size()) << at;
  for (size_t i = 0; i < actual.size(); ++i) {
    const LiveSet::Entry& a = actual[i];
    const LiveSet::Entry& e = expected[i];
    const std::string where = at + " position " + std::to_string(i);
    ASSERT_EQ(a.stream_id, e.stream_id) << where;
    ASSERT_EQ(a.kind, e.kind) << where;
    ASSERT_EQ(a.location, e.location) << where;
    ASSERT_EQ(a.abs_start, e.abs_start) << where;
    ASSERT_EQ(a.duration, e.duration) << where;
    ASSERT_EQ(a.rel_time, e.rel_time) << where;
    ASSERT_EQ(a.rel_duration, e.rel_duration) << where;
    ASSERT_EQ(a.window, e.window) << where;
  }
}

void RunScript(uint64_t seed, Coverage* coverage) {
  Rng rng(seed);
  const int64_t spd = rng.NextInt(2, 6);
  const double horizon = static_cast<double>(spd);
  LiveSet subject(horizon);
  ReferenceLiveSet reference(horizon);
  // At least two day boundaries per script.
  const int64_t windows = rng.NextInt(2 * spd + 1, 5 * spd);
  int64_t next_id = 0;
  bool open = false;
  int64_t segment_end = 0;
  for (int64_t window = 0; window < windows; ++window) {
    const std::string at =
        "seed " + std::to_string(seed) + " window " + std::to_string(window);
    const double now = static_cast<double>(window);
    const int64_t evicted = subject.ExpireUpTo(now);
    ASSERT_EQ(evicted, reference.ExpireUpTo(now)) << at;
    coverage->evictions += evicted;
    if (!open) {
      const int64_t day = window / spd;
      subject.StartSegment(window, day);
      reference.StartSegment(window, day);
      ASSERT_EQ(subject.size(), reference.carryover_size()) << at;
      open = true;
      segment_end = std::min(window + rng.NextInt(1, spd), (day + 1) * spd);
    }

    std::vector<StreamArrival> batch(static_cast<size_t>(rng.NextInt(0, 6)));
    for (StreamArrival& arrival : batch) {
      arrival = DrawArrival(&rng, window, spd);
      if (arrival.time == now) ++coverage->boundary_arrivals;
    }
    std::sort(batch.begin(), batch.end(),
              [](const StreamArrival& a, const StreamArrival& b) {
                if (a.time != b.time) return a.time < b.time;
                return a.kind == ObjectKind::kWorker &&
                       b.kind == ObjectKind::kTask;
              });
    for (const StreamArrival& arrival : batch) {
      subject.Admit(arrival, next_id, window);
      reference.Admit(arrival, next_id, window);
      ++next_id;
    }
    ASSERT_EQ(subject.live(), reference.live()) << at;

    const bool last = window + 1 == windows;
    if (window + 1 == segment_end || last || rng.NextBool(0.1)) {
      const std::vector<LiveSet::Entry>& expected = reference.Universe();
      const std::vector<LiveSet::Entry>& actual = subject.SealUniverse();
      ExpectSameUniverse(actual, expected, at);
      if (::testing::Test::HasFatalFailure()) return;
      ++coverage->universes;
      const double day_start = static_cast<double>(window / spd) * horizon;
      std::vector<char> matched(actual.size(), 0);
      for (size_t i = 0; i < actual.size(); ++i) {
        matched[i] = rng.NextBool(0.35) ? 1 : 0;
        if (actual[i].abs_start < day_start) ++coverage->retimed;
        if (matched[i] && actual[i].Deadline() <= now) {
          ++coverage->matched_expired;
        }
      }
      reference.TakeMatches(matched);
      subject.TakeMatches(matched);
      ASSERT_EQ(subject.live(), reference.live()) << at;
      open = false;
    }
  }
  EXPECT_EQ(subject.evicted_live(), 0) << "seed " << seed;
}

TEST(LiveSetPropertyTest, MatchesReferenceOverSeededScripts) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    RunScript(seed, &coverage);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(coverage.universes, 1000);
  EXPECT_GT(coverage.evictions, 0);
  EXPECT_GT(coverage.retimed, 0);
  EXPECT_GT(coverage.matched_expired, 0);
  EXPECT_GT(coverage.boundary_arrivals, 0);
}

TEST(LiveSetTest, LiveGaugeIsUnmatchedUnexpiredEntries) {
  LiveSet live(4.0);
  live.StartSegment(0, 0);
  StreamArrival worker{ObjectKind::kWorker, 0.5, Point{1.0, 1.0}, 1.0, 0, 0};
  StreamArrival task{ObjectKind::kTask, 0.5, Point{1.0, 1.0}, 3.0, 0, 0};
  live.Admit(worker, 0, 0);
  live.Admit(task, 1, 0);
  EXPECT_EQ(live.live(), 2);

  // The worker expires at the window-2 boundary but stays in the open
  // segment's universe; matching it does not count it twice.
  EXPECT_EQ(live.ExpireUpTo(1.0), 0);
  EXPECT_EQ(live.ExpireUpTo(2.0), 1);
  EXPECT_EQ(live.live(), 1);
  const std::vector<LiveSet::Entry>& universe = live.SealUniverse();
  ASSERT_EQ(universe.size(), 2u);
  EXPECT_EQ(universe[0].stream_id, 0);  // Workers first at equal times.
  live.TakeMatches({1, 0});
  EXPECT_EQ(live.live(), 1);
  EXPECT_EQ(live.size(), 1);
  EXPECT_EQ(live.peak(), 2);

  // The task is carried into the next segment and expires at the day
  // boundary.
  EXPECT_EQ(live.ExpireUpTo(3.0), 0);
  live.StartSegment(3, 0);
  EXPECT_EQ(live.SealUniverse().size(), 1u);
  live.TakeMatches({0});
  EXPECT_EQ(live.ExpireUpTo(4.0), 1);
  live.StartSegment(4, 1);
  EXPECT_EQ(live.size(), 0);
  EXPECT_EQ(live.live(), 0);
  EXPECT_EQ(live.evicted_live(), 0);
}

TEST(LiveSetTest, EvictedLiveCountsEntriesRetiredBeforeTheirDeadline) {
  // A clock that runs backwards makes the deadline structure retire an
  // entry whose deadline is still ahead of the last expiry bound; the
  // compaction reports it instead of dropping it silently.
  LiveSet live(4.0);
  live.StartSegment(0, 0);
  live.Admit(StreamArrival{ObjectKind::kWorker, 0.5, Point{}, 2.0, 0, 0}, 0,
             0);
  live.SealUniverse();
  live.TakeMatches({0});
  EXPECT_EQ(live.ExpireUpTo(3.0), 1);
  live.ExpireUpTo(2.0);
  live.StartSegment(3, 0);
  EXPECT_EQ(live.evicted_live(), 1);
}

}  // namespace
}  // namespace ftoa
