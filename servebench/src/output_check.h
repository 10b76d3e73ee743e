// Output check of one benchmark run: the harness's committed pairs must be
// a matching of the offered stream, and at the workload's own seed they
// must reproduce the recorded reference counts exactly.

#ifndef SERVEBENCH_OUTPUT_CHECK_H_
#define SERVEBENCH_OUTPUT_CHECK_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gen/looped_trace.h"
#include "model/feasibility.h"
#include "serve/service_harness.h"
#include "workloads.h"

namespace servebench {

struct CheckResult {
  bool ok = true;
  std::string reason;  ///< First failed condition; empty when ok.
  /// Pairs failing CanServeAttrs under the algorithm's policy.
  int64_t infeasible_pairs = 0;
};

/// Checks a finished run of `source`'s stream:
///  - nothing was shed or dropped, so stream id k is the k-th arrival of
///    ArrivalsForDay(0), ArrivalsForDay(1), ... (the admission ordinal);
///  - every worker and task stream id in `pairs` is used once and names an
///    arrival of the right kind;
///  - totals.evicted_live == 0 and totals.matched == pairs.size();
///  - totals.matched == expected.matched, unless that is < 0;
///  - the number of pairs failing CanServeAttrs under `policy`, with the
///    attributes recovered from ArrivalsForDay, equals expected.infeasible,
///    unless that is < 0. Absolute times are used: the harness's
///    day-relative re-timing of carried-over objects only tightens the
///    deadline test. The count is not required to be zero: POLAR-OP as the
///    harness builds it trusts the guide (PolarOptions::check_liveness is
///    off), so it commits guide-edge pairs whose objects miss the
///    object-level test (see servebench/README.md).
CheckResult CheckServeOutput(
    const ftoa::LoopedTraceSource& source,
    const std::vector<std::pair<int64_t, int64_t>>& pairs,
    const ftoa::ServiceTotals& totals, ftoa::FeasibilityPolicy policy,
    const Reference& expected);

}  // namespace servebench

#endif  // SERVEBENCH_OUTPUT_CHECK_H_
