#include "output_check.h"

#include <unordered_map>
#include <utility>

namespace servebench {

namespace {

CheckResult Fail(std::string reason) {
  CheckResult result;
  result.ok = false;
  result.reason = std::move(reason);
  return result;
}

struct Attrs {
  ftoa::Point location;
  double start = 0.0;
  double duration = 0.0;
};

}  // namespace

CheckResult CheckServeOutput(
    const ftoa::LoopedTraceSource& source,
    const std::vector<std::pair<int64_t, int64_t>>& pairs,
    const ftoa::ServiceTotals& totals, ftoa::FeasibilityPolicy policy,
    const Reference& expected) {
  if (totals.evicted_live != 0) {
    return Fail("evicted_live = " + std::to_string(totals.evicted_live));
  }
  if (totals.shed != 0 || totals.dropped_arrivals != 0 ||
      totals.admitted != totals.offered) {
    return Fail("arrivals were shed or dropped");
  }
  if (totals.matched != static_cast<int64_t>(pairs.size())) {
    return Fail("totals.matched disagrees with matched_pairs()");
  }
  if (expected.matched >= 0 && totals.matched != expected.matched) {
    return Fail("matched " + std::to_string(totals.matched) +
                " != reference " + std::to_string(expected.matched));
  }

  // slot[id] = 2 * pair + (0 worker | 1 task); -1 = unmatched. A second use
  // of an id is a double commit.
  const int64_t admitted = totals.admitted;
  if (pairs.size() >= (size_t{1} << 30)) return Fail("too many pairs");
  std::vector<int32_t> slot(static_cast<size_t>(admitted), -1);
  for (size_t p = 0; p < pairs.size(); ++p) {
    const int64_t ids[2] = {pairs[p].first, pairs[p].second};
    for (size_t side = 0; side < 2; ++side) {
      const int64_t id = ids[side];
      if (id < 0 || id >= admitted) {
        return Fail("stream id " + std::to_string(id) + " out of range");
      }
      if (slot[static_cast<size_t>(id)] >= 0) {
        return Fail("stream id " + std::to_string(id) + " matched twice");
      }
      slot[static_cast<size_t>(id)] = static_cast<int32_t>(2 * p + side);
    }
  }

  // Replay the stream. A pair's first endpoint waits in `open` until its
  // partner arrives; partners are close in time, so `open` stays small.
  CheckResult result;
  const double velocity = source.generator().profile().velocity;
  std::unordered_map<int32_t, Attrs> open;
  int64_t next_id = 0;
  for (int64_t day = 0; next_id < admitted; ++day) {
    const auto arrivals = source.ArrivalsForDay(day);
    if (!arrivals.ok()) return Fail(arrivals.status().ToString());
    for (const ftoa::StreamArrival& arrival : *arrivals) {
      if (next_id >= admitted) break;
      const int32_t at = slot[static_cast<size_t>(next_id++)];
      if (at < 0) continue;
      const bool is_worker = at % 2 == 0;
      if ((arrival.kind == ftoa::ObjectKind::kWorker) != is_worker) {
        return Fail("stream id " + std::to_string(next_id - 1) +
                    " has the wrong kind");
      }
      const Attrs self{arrival.location, arrival.time, arrival.duration};
      const auto partner = open.find(at / 2);
      if (partner == open.end()) {
        open.emplace(at / 2, self);
        continue;
      }
      const Attrs& w = is_worker ? self : partner->second;
      const Attrs& r = is_worker ? partner->second : self;
      if (!ftoa::CanServeAttrs(w.location, w.start, w.duration, r.location,
                               r.start, r.duration, velocity, policy)) {
        ++result.infeasible_pairs;
      }
      open.erase(partner);
    }
  }
  if (expected.infeasible >= 0 &&
      result.infeasible_pairs != expected.infeasible) {
    return Fail(std::to_string(result.infeasible_pairs) +
                " pairs fail the deadline test, reference " +
                std::to_string(expected.infeasible));
  }
  return result;
}

}  // namespace servebench
