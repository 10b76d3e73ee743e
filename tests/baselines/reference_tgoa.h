// Test oracle for the TGOA baseline: the rebuild-per-arrival original that
// baselines/tgoa replaced with one incremental matcher. Every second-phase
// arrival re-enumerates the candidate edges of the whole waiting pool and
// solves a fresh Hopcroft-Karp instance, the O(E sqrt(V))-per-arrival
// weakness of [26]. It is 35-140x slower than the product session on
// 250-2,000 objects and exists only so the equivalence suites can pin the
// product's pairs to it.
//
// A full OnlineAlgorithm, so it plugs into Run(), hand-driven sessions and
// ShardedDispatcher's wrapping constructor. It counts its own matcher
// rebuilds across every session it starts (sessions may run on shard
// threads), which the suites read to prove a comparison was not vacuous.

#ifndef FTOA_TESTS_BASELINES_REFERENCE_TGOA_H_
#define FTOA_TESTS_BASELINES_REFERENCE_TGOA_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "baselines/tgoa.h"
#include "core/online_algorithm.h"

namespace ftoa {
namespace testing {

class ReferenceTgoa : public OnlineAlgorithm {
 public:
  explicit ReferenceTgoa(TgoaOptions options = {}) : options_(options) {}

  std::string name() const override { return "TGOA"; }
  FeasibilityPolicy feasibility_policy() const override {
    return options_.policy;
  }

  std::unique_ptr<AssignmentSession> StartSession(
      const Instance& instance) override;

  /// Hopcroft-Karp instances built so far, over all sessions.
  int64_t rebuilds() const { return rebuilds_.load(); }

 private:
  TgoaOptions options_;
  std::atomic<int64_t> rebuilds_{0};
};

}  // namespace testing
}  // namespace ftoa

#endif  // FTOA_TESTS_BASELINES_REFERENCE_TGOA_H_
