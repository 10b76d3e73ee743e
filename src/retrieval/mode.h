// Which candidate search SimpleGreedy runs: the paper's linear scan or the
// shared retrieval engine. Every other algorithm always searches through
// the engine. The modes are output-equivalent by contract — the engine's
// queries answer the same canonical (distance, id)-ordered candidates as
// the scan — so the flag trades running time, never assignments
// (property-tested in tests/retrieval/retrieval_mode_test.cc).

#ifndef FTOA_RETRIEVAL_MODE_H_
#define FTOA_RETRIEVAL_MODE_H_

#include <string>
#include <vector>

#include "util/result.h"

namespace ftoa {

/// Candidate-search backend selector (`ftoa run --retrieval=...`).
enum class RetrievalMode {
  /// SimpleGreedy's paper-faithful linear scan over all waiting objects.
  kLinear,
  /// The shared top-k engine (retrieval/candidate_engine.h): best-first
  /// expanding-ring search with deadline/time-window pruning and per-query
  /// stats, identical output.
  kEngine,
};

/// Canonical CLI spellings, in declaration order: linear, engine.
std::vector<std::string> AllRetrievalModeNames();

/// Canonical name of a mode ("linear" / "engine").
std::string RetrievalModeName(RetrievalMode mode);

/// Parses a canonical name; NotFound (listing the valid set) otherwise.
Result<RetrievalMode> ParseRetrievalMode(const std::string& name);

}  // namespace ftoa

#endif  // FTOA_RETRIEVAL_MODE_H_
