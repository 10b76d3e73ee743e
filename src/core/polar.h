// POLAR (paper Algorithm 2): Prediction-oriented OnLine task Assignment in
// Real-time spatial data. Each arriving object *occupies* an unoccupied
// guide node of its own (slot, area) type — at most one object per node —
// and the pre-computed matching Ĝf dictates the assignment: if the occupied
// node's partner is already occupied, match immediately; otherwise a worker
// is dispatched toward the partner's area and a task waits in place.
// Competitive ratio (1 - 1/e)^2 ~ 0.4 under the i.i.d. model (Theorem 1);
// O(1) processing per arrival.

#ifndef FTOA_CORE_POLAR_H_
#define FTOA_CORE_POLAR_H_

#include <memory>

#include "core/guide.h"
#include "core/online_algorithm.h"

namespace ftoa {

/// Behavior knobs shared by the POLAR family.
struct PolarOptions {
  /// When true, a match is only committed if the counterpart object is still
  /// on the platform (its own deadline has not passed). The paper's
  /// analysis assumes guide-feasible pairs always realize ("guide-trust");
  /// the liveness check is a strictly-safer variant used in ablations.
  bool check_liveness = false;
};

/// The POLAR algorithm. Sessions share the (immutable) guide.
class Polar : public OnlineAlgorithm {
 public:
  explicit Polar(std::shared_ptr<const OfflineGuide> guide,
                 PolarOptions options = {});

  std::string name() const override { return "POLAR"; }
  const OfflineGuide* guide() const override { return guide_.get(); }

  std::unique_ptr<AssignmentSession> StartSession(
      const Instance& instance) override;

 private:
  std::shared_ptr<const OfflineGuide> guide_;
  PolarOptions options_;
};

}  // namespace ftoa

#endif  // FTOA_CORE_POLAR_H_
