// Shared fixtures for the ftoa test suite: the paper's running example
// (Example 1 / Table 1 / Figure 1), which several unit and integration
// tests reproduce end to end, and a seeded fuzz-style instance generator
// producing adversarial arrival orderings for the streaming/sharding
// equivalence suites.

#ifndef FTOA_TESTS_TEST_UTIL_H_
#define FTOA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithm_registry.h"
#include "core/guide_generator.h"
#include "core/online_algorithm.h"
#include "core/prediction_matrix.h"
#include "model/instance.h"
#include "spatial/spacetime.h"
#include "util/rng.h"

namespace ftoa {
namespace testing {

/// Builds the paper's Example 1: seven taxis (workers) and six
/// taxi-calling tasks on an 8x8 region, times in minutes after 9:00,
/// Dr = 2 minutes, Dw = 30 minutes, velocity 1 unit/minute. The type space
/// is 2 slots x 2x2 areas as in Figure 1d.
inline Instance MakeExample1Instance() {
  std::vector<Worker> workers(7);
  const double dw = 30.0;
  workers[0] = {0, {1.0, 6.0}, 0.0, dw};  // w1, 9:00
  workers[1] = {1, {1.0, 8.0}, 1.0, dw};  // w2, 9:01
  workers[2] = {2, {3.0, 7.0}, 1.0, dw};  // w3, 9:01
  workers[3] = {3, {5.0, 6.0}, 3.0, dw};  // w4, 9:03
  workers[4] = {4, {6.0, 5.0}, 3.0, dw};  // w5, 9:03
  workers[5] = {5, {6.0, 7.0}, 3.0, dw};  // w6, 9:03
  workers[6] = {6, {7.0, 6.0}, 4.0, dw};  // w7, 9:04

  std::vector<Task> tasks(6);
  const double dr = 2.0;
  tasks[0] = {0, {3.0, 6.0}, 0.0, dr};  // r1, 9:00
  tasks[1] = {1, {2.0, 5.0}, 2.0, dr};  // r2, 9:02
  tasks[2] = {2, {5.0, 3.0}, 5.0, dr};  // r3, 9:05
  tasks[3] = {3, {4.0, 1.0}, 6.0, dr};  // r4, 9:06
  tasks[4] = {4, {8.0, 2.0}, 7.0, dr};  // r5, 9:07
  tasks[5] = {5, {6.0, 1.0}, 8.0, dr};  // r6, 9:08

  const GridSpec grid(8.0, 8.0, 2, 2);       // Four areas as in Figure 1d.
  const SlotSpec slots(10.0, 2);             // Two 5-minute slots.
  return Instance(SpacetimeSpec(slots, grid), /*velocity=*/1.0,
                  std::move(workers), std::move(tasks));
}

/// Iteration count for the randomized stress suites: the FTOA_STRESS_ITERS
/// environment variable when set (tools/run_stress.sh exports it), else
/// `fallback` — kept small so the plain ctest run stays fast.
inline int StressIterations(int fallback) {
  const char* env = std::getenv("FTOA_STRESS_ITERS");
  if (env == nullptr) return fallback;
  const int value = std::atoi(env);
  return value > 0 ? value : fallback;
}

/// Temporal shape of a fuzz instance's arrival stream. The streaming
/// equivalence tests historically replayed only well-mixed synthetic
/// orders; these patterns force the adversarial ones.
enum class ArrivalPattern {
  kWorkersFirst,  ///< Every worker arrives before the first task.
  kTasksFirst,    ///< Every task arrives before the first worker.
  kAlternating,   ///< Strict worker/task interleaving, one per tick.
  kBursty,        ///< Arrivals collapse onto a few identical timestamps
                  ///< (stresses equal-time tie-breaks + batch windows).
  kShuffledIds,   ///< Uniform times, ids uncorrelated with arrival order.
};

/// All patterns, for parameterized sweeps.
inline std::vector<ArrivalPattern> AllArrivalPatterns() {
  return {ArrivalPattern::kWorkersFirst, ArrivalPattern::kTasksFirst,
          ArrivalPattern::kAlternating, ArrivalPattern::kBursty,
          ArrivalPattern::kShuffledIds};
}

inline const char* ArrivalPatternName(ArrivalPattern pattern) {
  switch (pattern) {
    case ArrivalPattern::kWorkersFirst: return "workers-first";
    case ArrivalPattern::kTasksFirst: return "tasks-first";
    case ArrivalPattern::kAlternating: return "alternating";
    case ArrivalPattern::kBursty: return "bursty";
    case ArrivalPattern::kShuffledIds: return "shuffled-ids";
  }
  return "unknown";
}

/// Fisher-Yates with the repo Rng (std::shuffle's draw order is
/// implementation-defined; this stays bit-identical across toolchains).
template <typename T>
void DeterministicShuffle(std::vector<T>& items, Rng& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.NextBounded(i)]);
  }
}

/// Builds a randomized instance whose arrival stream follows `pattern`,
/// deterministic in (seed, pattern). Region 10x10 over a 4x4 grid, horizon
/// 10 over 5 slots, velocity 2; durations and locations are drawn wide
/// enough that a healthy fraction of pairs is feasible.
inline Instance MakeFuzzInstance(uint64_t seed, ArrivalPattern pattern,
                                 int num_workers = 60, int num_tasks = 60) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL +
          static_cast<uint64_t>(pattern) * 0x100000001b3ULL + 1);
  const double width = 10.0;
  const double height = 10.0;
  const double horizon = 10.0;

  std::vector<double> worker_times(static_cast<size_t>(num_workers));
  std::vector<double> task_times(static_cast<size_t>(num_tasks));
  switch (pattern) {
    case ArrivalPattern::kWorkersFirst:
      for (double& t : worker_times) t = rng.NextDouble(0.0, horizon / 3.0);
      for (double& t : task_times) {
        t = rng.NextDouble(horizon / 3.0, horizon);
      }
      break;
    case ArrivalPattern::kTasksFirst:
      for (double& t : task_times) t = rng.NextDouble(0.0, horizon / 3.0);
      for (double& t : worker_times) {
        t = rng.NextDouble(horizon / 3.0, horizon);
      }
      break;
    case ArrivalPattern::kAlternating: {
      // w0 r0 w1 r1 ... one object per tick, workers on even ticks.
      const int ticks = 2 * (num_workers > num_tasks ? num_workers
                                                     : num_tasks);
      const double delta = horizon / (ticks + 1);
      for (int i = 0; i < num_workers; ++i) {
        worker_times[static_cast<size_t>(i)] = (2 * i) * delta;
      }
      for (int i = 0; i < num_tasks; ++i) {
        task_times[static_cast<size_t>(i)] = (2 * i + 1) * delta;
      }
      break;
    }
    case ArrivalPattern::kBursty: {
      // Every arrival lands on one of a handful of *identical* timestamps.
      const int num_bursts = 3 + static_cast<int>(rng.NextBounded(4));
      std::vector<double> bursts(static_cast<size_t>(num_bursts));
      for (double& b : bursts) b = rng.NextDouble(0.0, horizon);
      for (double& t : worker_times) {
        t = bursts[rng.NextBounded(bursts.size())];
      }
      for (double& t : task_times) {
        t = bursts[rng.NextBounded(bursts.size())];
      }
      break;
    }
    case ArrivalPattern::kShuffledIds:
      for (double& t : worker_times) t = rng.NextDouble(0.0, horizon);
      for (double& t : task_times) t = rng.NextDouble(0.0, horizon);
      break;
  }

  std::vector<Worker> workers(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    Worker& w = workers[static_cast<size_t>(i)];
    w.location = {rng.NextDouble(0.0, width), rng.NextDouble(0.0, height)};
    w.start = worker_times[static_cast<size_t>(i)];
    w.duration = 1.0 + rng.NextDouble() * 5.0;
  }
  std::vector<Task> tasks(static_cast<size_t>(num_tasks));
  for (int i = 0; i < num_tasks; ++i) {
    Task& r = tasks[static_cast<size_t>(i)];
    r.location = {rng.NextDouble(0.0, width), rng.NextDouble(0.0, height)};
    r.start = task_times[static_cast<size_t>(i)];
    r.duration = 0.5 + rng.NextDouble() * 2.5;
  }
  if (pattern == ArrivalPattern::kShuffledIds) {
    // Ids are reassigned to vector order by the Instance constructor, so
    // shuffling here makes id order uncorrelated with arrival order.
    DeterministicShuffle(workers, rng);
    DeterministicShuffle(tasks, rng);
  }

  const GridSpec grid(width, height, 4, 4);
  const SlotSpec slots(horizon, 5);
  return Instance(SpacetimeSpec(slots, grid), /*velocity=*/2.0,
                  std::move(workers), std::move(tasks));
}

/// Instance plus the deps its POLAR-family algorithms need — the guide is
/// built from the instance's own realized counts (a perfect prediction),
/// which keeps small fuzz universes from starving the guide.
struct FuzzUniverse {
  Instance instance;
  AlgorithmDeps deps;
};

/// MakeFuzzInstance plus a matching guide, the unit the streaming and
/// sharding equivalence suites sweep over.
inline FuzzUniverse MakeFuzzUniverse(uint64_t seed, ArrivalPattern pattern,
                                     int num_workers = 60,
                                     int num_tasks = 60) {
  FuzzUniverse universe{
      MakeFuzzInstance(seed, pattern, num_workers, num_tasks), {}};
  GuideOptions options;
  options.engine = GuideOptions::Engine::kAuto;
  options.worker_duration = universe.instance.MaxWorkerDuration();
  options.task_duration = universe.instance.MaxTaskDuration();
  auto guide =
      GuideGenerator(universe.instance.velocity(), options)
          .Generate(PredictionMatrix::FromInstance(universe.instance));
  EXPECT_TRUE(guide.ok()) << guide.status().ToString();
  universe.deps.guide =
      std::make_shared<const OfflineGuide>(std::move(*guide));
  return universe;
}

/// Asserts that two runs made bit-identical decisions: the same pairs in
/// the same order (worker, task, time), the same dispatches and the same
/// ignored counts. The product-versus-oracle suites compare this much; an
/// oracle runs another matcher, so its instrumentation differs.
inline void ExpectIdenticalDecisions(const Assignment& a, const RunTrace& ta,
                                     const Assignment& b, const RunTrace& tb,
                                     const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.pairs().size(); ++i) {
    const MatchedPair& pa = a.pairs()[i];
    const MatchedPair& pb = b.pairs()[i];
    EXPECT_EQ(pa.worker, pb.worker) << label << " pair " << i;
    EXPECT_EQ(pa.task, pb.task) << label << " pair " << i;
    EXPECT_EQ(pa.time, pb.time) << label << " pair " << i;
  }
  ASSERT_EQ(ta.dispatches.size(), tb.dispatches.size()) << label;
  for (size_t i = 0; i < ta.dispatches.size(); ++i) {
    EXPECT_EQ(ta.dispatches[i].worker, tb.dispatches[i].worker)
        << label << " dispatch " << i;
    EXPECT_EQ(ta.dispatches[i].target, tb.dispatches[i].target)
        << label << " dispatch " << i;
    EXPECT_EQ(ta.dispatches[i].time, tb.dispatches[i].time)
        << label << " dispatch " << i;
  }
  EXPECT_EQ(ta.ignored_workers, tb.ignored_workers) << label;
  EXPECT_EQ(ta.ignored_tasks, tb.ignored_tasks) << label;
}

/// ExpectIdenticalDecisions plus equal matcher instrumentation: the
/// equality the batch/stream/sharded equivalence suites are built on.
inline void ExpectIdenticalRun(const Assignment& a, const RunTrace& ta,
                               const Assignment& b, const RunTrace& tb,
                               const std::string& label) {
  ExpectIdenticalDecisions(a, ta, b, tb, label);
  EXPECT_EQ(ta.matcher_augment_searches, tb.matcher_augment_searches)
      << label;
}

}  // namespace testing
}  // namespace ftoa

#endif  // FTOA_TESTS_TEST_UTIL_H_
