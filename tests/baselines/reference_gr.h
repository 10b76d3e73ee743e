// Test oracle for the GR baseline: the rebuild-per-window original that
// baselines/gr_batch replaced with one incremental matcher. At every window
// boundary it re-enumerates every pooled worker's candidates and solves a
// fresh Hopcroft-Karp instance.
//
// Both sessions commit a maximum matching of each window's graph, but not
// always the same one, so their pair lists (and, through what is left in
// the pool, later windows) can differ. The suites therefore compare matched
// counts against this oracle, not pair identity.
//
// A full OnlineAlgorithm, so it plugs into Run(), hand-driven sessions and
// ShardedDispatcher's wrapping constructor. It counts its own matcher
// rebuilds across every session it starts (sessions may run on shard
// threads), which the suites read to prove a comparison was not vacuous.

#ifndef FTOA_TESTS_BASELINES_REFERENCE_GR_H_
#define FTOA_TESTS_BASELINES_REFERENCE_GR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "baselines/gr_batch.h"
#include "core/online_algorithm.h"

namespace ftoa {
namespace testing {

class ReferenceGr : public OnlineAlgorithm {
 public:
  explicit ReferenceGr(GrBatchOptions options = {}) : options_(options) {}

  std::string name() const override { return "GR"; }
  FeasibilityPolicy feasibility_policy() const override {
    return options_.policy;
  }

  std::unique_ptr<AssignmentSession> StartSession(
      const Instance& instance) override;

  /// Hopcroft-Karp instances built so far, over all sessions.
  int64_t rebuilds() const { return rebuilds_.load(); }

 private:
  GrBatchOptions options_;
  std::atomic<int64_t> rebuilds_{0};
};

}  // namespace testing
}  // namespace ftoa

#endif  // FTOA_TESTS_BASELINES_REFERENCE_GR_H_
