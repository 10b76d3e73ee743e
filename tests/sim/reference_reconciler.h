// Test oracle for post-merge boundary reconciliation: the ring-walk
// reconciler that sim/boundary_reconciler replaced for guided algorithms.
// Every boundary worker runs one ring-walk top-k over all boundary tasks on
// the instance grid, and the guide capacity is checked per candidate after
// retrieval. It is strictly slower than the product pass and exists only so
// tests/sim/reconciler_equivalence_test.cc can prove the guide-directed
// cell walk bit-identical.

#ifndef FTOA_TESTS_SIM_REFERENCE_RECONCILER_H_
#define FTOA_TESTS_SIM_REFERENCE_RECONCILER_H_

#include "model/assignment.h"
#include "model/instance.h"
#include "sim/boundary_reconciler.h"
#include "sim/shard_router.h"
#include "util/result.h"

namespace ftoa {
namespace testing {

/// Same contract and outputs as ReconcileShardBoundary. Leaves
/// ReconcileStats::no_capacity_workers at zero: every boundary worker is
/// queried.
Result<ReconcileStats> ReferenceReconcileShardBoundary(
    const Instance& instance, const ShardRouter& router,
    const ReconcileOptions& options, Assignment* assignment);

}  // namespace testing
}  // namespace ftoa

#endif  // FTOA_TESTS_SIM_REFERENCE_RECONCILER_H_
