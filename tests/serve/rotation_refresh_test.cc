// Harness-level equivalences.
//
// Rotation: the live set's incremental carryover (serve/live_set) must
// commit exactly the pairs, and report exactly the per-window live gauge
// and evictions, of the original id-keyed store whose carryover was
// rebuilt by scanning every record — across algorithms, shard counts,
// segment lengths, fault plans, and day boundaries. That store is gone;
// its runs are pinned as fingerprints (tests/serve/harness_fingerprint.h)
// recorded from it, where its rebuild rotation, its incremental spine and
// both eviction settings all agreed. The store-level oracle is
// tests/serve/reference_live_set, driven by tests/serve/live_set_test.cc.
//
// Refresh: a harness serving with GuideRefreshMode::kWarm must match the
// cold-serving harness bit for bit, including mid-segment hot-swap
// publishes, while actually reusing component solves (the reuse totals
// prove the warm path engaged, not silently fell back cold).
//
// The *Stress* suite fuzzes option interleavings under the `stress` ctest
// label (re-runnable via tools/run_stress.sh).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serve/harness_fingerprint.h"
#include "serve/service_harness.h"
#include "util/rng.h"

namespace ftoa {
namespace {

CityProfile SmallCity() {
  CityProfile profile;
  profile.name = "test-city";
  profile.grid_x = 6;
  profile.grid_y = 4;
  profile.slots_per_day = 6;
  profile.history_days = 4;
  profile.workers_per_day = 60;
  profile.tasks_per_day = 70;
  profile.velocity = 3.0;
  profile.task_duration = 1.0;
  profile.worker_duration = 2.0;
  profile.seed = 99;
  return profile;
}

std::unique_ptr<ServiceHarness> MakeHarness(const ServiceOptions& options) {
  auto harness = ServiceHarness::Create(SmallCity(),
                                        LoopedTraceSource::Options{}, options);
  EXPECT_TRUE(harness.ok()) << harness.status();
  return std::move(harness).value();
}

void ExpectSamePairs(const ServiceHarness& a, const ServiceHarness& b,
                     const std::string& context) {
  EXPECT_EQ(a.totals().matched, b.totals().matched) << context;
  ASSERT_EQ(a.matched_pairs().size(), b.matched_pairs().size()) << context;
  for (size_t i = 0; i < a.matched_pairs().size(); ++i) {
    ASSERT_EQ(a.matched_pairs()[i], b.matched_pairs()[i])
        << context << " pair " << i;
  }
}

TEST(RotationEquivalenceTest, SpineMatchesRebuildAcrossAlgorithmsAndShards) {
  // Recorded from the rebuild reference (eviction on; eviction off gave the
  // same values), in loop order: algorithm, shards, windows per segment.
  const HarnessFingerprint kRebuild[] = {
      {188, 0xf822e5a560b7020eULL, 0xd656533079df99c4ULL},
      {188, 0xf822e5a560b7020eULL, 0xaf149e3a316aacabULL},
      {161, 0x0d9c2c382b12d052ULL, 0x04ed1d653448d23dULL},
      {161, 0x4c4be8e43d7506a2ULL, 0xf6592daca2847d4cULL},
      {192, 0xed8410aa4dd46d43ULL, 0xa7681847f172adf6ULL},
      {193, 0x44973993bd94df44ULL, 0x32827878acb0512aULL},
      {161, 0x179b53faad3c781cULL, 0xdc338a95b77cc647ULL},
      {161, 0x4c4be8e43d7506a2ULL, 0xf6592daca2847d4cULL},
      {96, 0xdf9e657a23cd6f65ULL, 0x03e8819ca4c2c34cULL},
      {97, 0x22d022ef1f74698eULL, 0xd51ade5ab8364f57ULL},
      {47, 0x96b322acc083301cULL, 0xe73ed23bf448044cULL},
      {47, 0x509d06803ddf90f4ULL, 0x5be0bd35438e4500ULL},
  };
  size_t next = 0;
  for (const char* algorithm : {"simple-greedy", "tgoa", "polar-op"}) {
    for (const int shards : {1, 3}) {
      for (const int wps : {2, 6}) {
        ServiceOptions options;
        options.algorithm = algorithm;
        options.num_shards = shards;
        options.windows_per_segment = wps;
        auto harness = MakeHarness(options);
        // 20 windows = 3+ days: multiple day-boundary re-timings.
        ASSERT_TRUE(harness->RunWindows(20).ok());
        EXPECT_EQ(FingerprintOf(*harness), kRebuild[next++])
            << algorithm << " shards=" << shards << " wps=" << wps;
        EXPECT_GT(harness->totals().matched, 0);
        EXPECT_EQ(harness->totals().evicted_live, 0);
      }
    }
  }
}

TEST(RotationEquivalenceTest, SpineMatchesRebuildUnderFaults) {
  // Dropped handoffs leave objects for redelivery, flash crowds force
  // shedding, and a failed refresh degrades a segment — all paths that
  // exercise the carryover filter differently from a clean run.
  ServiceOptions options;
  options.windows_per_segment = 4;  // Shrinks to 2 at day boundaries.
  options.max_queue_depth = 80;
  options.faults =
      "drop-batch@3-4,flash@7-8:factor=6,guide-fail@6-6:count=1";

  auto harness = MakeHarness(options);
  ASSERT_TRUE(harness->RunWindows(18).ok());
  const HarnessFingerprint kRebuild = {64, 0x9c033e986d310ca1ULL,
                                       0x9a852100d9aab68eULL};
  EXPECT_EQ(FingerprintOf(*harness), kRebuild);
  EXPECT_GT(harness->totals().dropped_arrivals, 0);
  EXPECT_GT(harness->totals().shed, 0);
}

TEST(WarmRefreshServeTest, WarmServeMatchesColdIncludingHotSwaps) {
  // refresh_period 3 on 6-window days: every second refresh publishes
  // mid-segment (hot-swap), and re-solves within one day see an unchanged
  // prediction — the warm cache's steady state. kCompressed keeps the
  // solve on the component-reusing path (kAuto would pick node-level at
  // this scale and run cold by design).
  ServiceOptions cold;
  cold.refresh_period_windows = 3;
  cold.guide.engine = GuideOptions::Engine::kCompressed;
  cold.guide.refresh_mode = GuideRefreshMode::kCold;
  ServiceOptions warm = cold;
  warm.guide.refresh_mode = GuideRefreshMode::kWarm;

  auto a = MakeHarness(warm);
  auto b = MakeHarness(cold);
  ASSERT_TRUE(a->RunWindows(18).ok());
  ASSERT_TRUE(b->RunWindows(18).ok());
  ExpectSamePairs(*a, *b, "warm vs cold serve");
  EXPECT_GT(a->totals().guide_swaps, 0);  // Hot-swaps actually landed.

  // The warm harness reused solves (within-day refreshes see the same
  // realized counts); the cold one never does.
  EXPECT_GT(a->totals().warm_refreshes, 0);
  EXPECT_GT(a->totals().refresh_components_reused, 0);
  EXPECT_EQ(b->totals().warm_refreshes, 0);
  EXPECT_EQ(b->totals().refresh_components_reused, 0);
  // Cost attribution reaches the per-window rows: every publish window
  // carries a solve time, non-publish windows carry none.
  double attributed_ms = 0.0;
  for (const WindowMetrics& w : a->windows()) {
    attributed_ms += w.refresh_ms;
    if (w.refresh_components_total > 0) {
      EXPECT_GE(w.refresh_components_total, w.refresh_components_reused);
    }
  }
  EXPECT_GT(attributed_ms, 0.0);
  EXPECT_DOUBLE_EQ(attributed_ms, a->totals().refresh_ms);
}

TEST(WarmRefreshServeTest, BackgroundWarmRefreshAttributesCycles) {
  ServiceOptions options;
  options.background_refresh = true;
  options.guide.engine = GuideOptions::Engine::kCompressed;
  options.guide.refresh_mode = GuideRefreshMode::kWarm;
  options.refresh.timeout_ms = 30000.0;
  auto harness = MakeHarness(options);
  for (int i = 0; i < 1000 && harness->totals().cold_refreshes +
                                  harness->totals().warm_refreshes < 2;
       ++i) {
    ASSERT_TRUE(harness->RunWindows(6).ok());
  }
  // Background publishes carry their cycle report across the thread
  // boundary into the totals.
  EXPECT_GE(harness->totals().cold_refreshes +
                harness->totals().warm_refreshes,
            2);
  EXPECT_GT(harness->totals().refresh_ms, 0.0);
}

TEST(AnalyticalSliceTest, SharedPoolServeMatchesDedicatedLayout) {
  // analytical_slice shares one pool between shard drains and the
  // refresher's bounded slice. Scheduling must not leak into results:
  // with inline refresh (whose publish timing is deterministic), pairs
  // are bit-identical to the PR 6 layout (dispatcher-owned pools).
  ServiceOptions dedicated;
  dedicated.num_shards = 2;
  dedicated.shard_threads = 2;
  ServiceOptions shared = dedicated;
  shared.analytical_slice = 1;

  auto a = MakeHarness(shared);
  auto b = MakeHarness(dedicated);
  ASSERT_TRUE(a->RunWindows(18).ok());
  ASSERT_TRUE(b->RunWindows(18).ok());
  ExpectSamePairs(*a, *b, "shared pool vs dedicated");
  EXPECT_GT(a->totals().matched, 0);
}

TEST(AnalyticalSliceTest, BackgroundSolvesOnTheSharedPoolStayLive) {
  // Background refresh on the slice races the window loop (publish timing
  // is scheduling-dependent, so no bit-identity claim) — but cycles must
  // keep completing and publishing while shard drains share the pool, and
  // the harness must tear down cleanly with solves possibly in flight.
  ServiceOptions options;
  options.num_shards = 2;
  options.shard_threads = 2;
  options.background_refresh = true;
  options.analytical_slice = 1;
  options.refresh.timeout_ms = 30000.0;
  auto harness = MakeHarness(options);
  for (int i = 0; i < 1000 && harness->guide_epoch() < 2; ++i) {
    ASSERT_TRUE(harness->RunWindows(6).ok());
  }
  EXPECT_GE(harness->guide_epoch(), 2);
  EXPECT_GT(harness->totals().matched, 0);
}

TEST(RefreshPredictorTest, LearnedPredictorFeedsTheRefresher) {
  ServiceOptions options;
  options.refresh_predictor = "HA";
  auto harness = MakeHarness(options);
  ASSERT_TRUE(harness->RunWindows(18).ok());
  EXPECT_GE(harness->refresher_stats().publishes, 3);
  EXPECT_GT(harness->totals().matched, 0);

  // A lagged model (LR wants > 15 training days) fits too once the
  // history is long enough — the rolling refit hands it the generator
  // history plus every completed stream day.
  CityProfile long_history = SmallCity();
  long_history.history_days = 18;
  ServiceOptions lr = options;
  lr.refresh_predictor = "LR";
  auto lr_harness = ServiceHarness::Create(
      long_history, LoopedTraceSource::Options{}, lr);
  ASSERT_TRUE(lr_harness.ok()) << lr_harness.status();
  const Status lr_run = (*lr_harness)->RunWindows(18);
  ASSERT_TRUE(lr_run.ok()) << lr_run;
  EXPECT_GT((*lr_harness)->totals().matched, 0);

  ServiceOptions unknown;
  unknown.refresh_predictor = "oracle";
  const auto bad = ServiceHarness::Create(
      SmallCity(), LoopedTraceSource::Options{}, unknown);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsNotFound());
}

TEST(FaultLaneTest, ShardTargetedDropsFollowTheRouterNotStreamIds) {
  // A shard-targeted drop-batch hits the lane the session router actually
  // assigns (spatial bands under the grid router), so it must drop only
  // part of each window's traffic — and stay deterministic across shard
  // thread counts, since Route is a pure function of (kind, id, location).
  ServiceOptions options;
  options.num_shards = 2;
  options.windows_per_segment = 3;
  options.faults = "drop-batch@0-8:shard=0";
  auto harness = MakeHarness(options);
  ASSERT_TRUE(harness->RunWindows(9).ok());
  EXPECT_GT(harness->totals().dropped_arrivals, 0);
  // Shard 1's band was never dropped: traffic flowed and matched every
  // segment, unlike the all-lanes drop below.
  EXPECT_GT(harness->totals().matched, 0);

  // Dropping every lane loses strictly more traffic than dropping one
  // shard's band (segment-start carryover redelivery still gets through
  // in both runs — drop-batch governs per-window handoffs).
  ServiceOptions all_lanes = options;
  all_lanes.faults = "drop-batch@0-8";  // No shard filter: whole handoff.
  auto nothing = MakeHarness(all_lanes);
  ASSERT_TRUE(nothing->RunWindows(9).ok());
  EXPECT_LT(nothing->totals().matched, harness->totals().matched);
  EXPECT_GT(nothing->totals().dropped_arrivals,
            harness->totals().dropped_arrivals);

  ServiceOptions threaded = options;
  threaded.shard_threads = 2;
  auto b = MakeHarness(threaded);
  ASSERT_TRUE(b->RunWindows(9).ok());
  ExpectSamePairs(*harness, *b, "lane drops across thread counts");
  EXPECT_EQ(harness->totals().dropped_arrivals,
            b->totals().dropped_arrivals);
}

TEST(RotationRefreshStressTest, FuzzedInterleavingsStayEquivalent) {
  // Randomized option interleavings: every draw must serve warm exactly
  // like cold, and both exactly like the rebuild reference (fingerprints
  // recorded from it, trial by trial).
  const HarnessFingerprint kRebuild[] = {
      {129, 0x469de8881a4598a6ULL, 0x3473579c7596bbb2ULL},
      {31, 0xbbeccfe019940f59ULL, 0x0cce0e035202aad4ULL},
      {105, 0x0677499f455fd6e6ULL, 0xe3b019bd6876f33dULL},
      {164, 0x4966524f3a732d4bULL, 0x0803ec9bbf899e25ULL},
      {9, 0xc20073909c680bb6ULL, 0x3de1b260139f877bULL},
      {47, 0xe57f2b85ac18db57ULL, 0x0a5308dacd000b80ULL},
      {57, 0x79bb323140cecc2cULL, 0x773057f2b9fda288ULL},
      {141, 0x476acaba44e152d2ULL, 0x22e297be8dc602dbULL},
      {61, 0xc574fd69557bda89ULL, 0x8ac7a0d8607a0780ULL},
      {97, 0xd3721581f2c16a6cULL, 0xa523a3a2b084a5e3ULL},
      {140, 0xb8719f437deeb47fULL, 0xe74caff777b0982aULL},
      {33, 0xbd90806c81d68a95ULL, 0x749874dcb4efb3a0ULL},
  };
  Rng draw(20260808ULL);
  for (int trial = 0; trial < 12; ++trial) {
    ServiceOptions cold;
    cold.algorithm =
        std::vector<const char*>{"simple-greedy", "tgoa",
                                 "polar-op"}[draw.NextBounded(3)];
    cold.num_shards = static_cast<int>(draw.NextInt(1, 3));
    cold.windows_per_segment = static_cast<int>(draw.NextInt(1, 6));
    cold.refresh_period_windows = static_cast<int>(draw.NextInt(1, 6));
    // Once the eviction toggle; still drawn so each trial keeps the
    // options its fingerprint was recorded with.
    draw.NextBool();
    cold.guide.engine = GuideOptions::Engine::kCompressed;
    if (draw.NextBool(0.4)) {
      cold.faults = "drop-batch@2-5:prob=0.5,flash@6-7:factor=3";
      cold.max_queue_depth = 100;
    }
    cold.guide.refresh_mode = GuideRefreshMode::kCold;
    ServiceOptions warm = cold;
    warm.guide.refresh_mode = GuideRefreshMode::kWarm;

    auto reference = MakeHarness(cold);
    auto subject = MakeHarness(warm);
    const int64_t windows = draw.NextInt(7, 20);
    ASSERT_TRUE(reference->RunWindows(windows).ok());
    ASSERT_TRUE(subject->RunWindows(windows).ok());
    const std::string context = "trial " + std::to_string(trial);
    ExpectSamePairs(*subject, *reference, context);
    EXPECT_EQ(FingerprintOf(*reference), kRebuild[trial]) << context;
    EXPECT_EQ(FingerprintOf(*subject), kRebuild[trial]) << context;
  }
}

}  // namespace
}  // namespace ftoa
