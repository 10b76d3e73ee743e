// Name-based construction of the online-assignment algorithms, mirroring
// prediction/registry for the Table 5 predictors. One canonical name per
// algorithm (the CLI spelling); every front end — ftoa_cli, the bench
// harness, the competitive-ratio driver — builds algorithms through
// CreateAlgorithm instead of its own if/else chain.

#ifndef FTOA_CORE_ALGORITHM_REGISTRY_H_
#define FTOA_CORE_ALGORITHM_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/gr_batch.h"
#include "baselines/simple_greedy.h"
#include "baselines/tgoa.h"
#include "core/guide.h"
#include "core/online_algorithm.h"
#include "core/polar.h"
#include "util/result.h"

namespace ftoa {

/// Everything an algorithm constructor may need. Only the guide is a true
/// dependency (required by the POLAR family); the option structs default to
/// each algorithm's paper configuration.
struct AlgorithmDeps {
  /// Offline guide Ĝf shared by all POLAR-family sessions. Must be set for
  /// "polar", "polar-op", and "polar-op-g"; ignored by the rest.
  std::shared_ptr<const OfflineGuide> guide;

  PolarOptions polar_options;
  SimpleGreedyOptions simple_greedy_options;
  TgoaOptions tgoa_options;
  GrBatchOptions gr_options;

  /// Master candidate-retrieval switch (the CLI's --retrieval flag). When
  /// set to kEngine it overrides simple_greedy_options.retrieval; kLinear
  /// (the default) leaves the struct untouched. Every other algorithm
  /// always searches through the retrieval engine.
  RetrievalMode retrieval = RetrievalMode::kLinear;
};

/// Canonical names of all registered algorithms, in the paper's evaluation
/// order: simple-greedy, gr, tgoa, polar, polar-op, polar-op-g, opt.
std::vector<std::string> AllAlgorithmNames();

/// True iff `name` denotes a POLAR-family algorithm, i.e. CreateAlgorithm
/// requires deps.guide to be set. Unknown names return false (creation
/// reports them as NotFound).
bool AlgorithmNeedsGuide(const std::string& name);

/// Display name ("POLAR-OP") for a canonical registry name, without
/// constructing the algorithm; empty for unknown names. Matches what the
/// constructed object's name() reports in its default configuration.
std::string AlgorithmDisplayName(const std::string& name);

/// Constructs an algorithm by its canonical name (case-sensitive). Returns
/// NotFound for unknown names (the message lists the valid set) and
/// InvalidArgument when a guide-based algorithm is requested without a
/// guide.
Result<std::unique_ptr<OnlineAlgorithm>> CreateAlgorithm(
    const std::string& name, const AlgorithmDeps& deps = {});

}  // namespace ftoa

#endif  // FTOA_CORE_ALGORITHM_REGISTRY_H_
