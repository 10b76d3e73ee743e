// A compact, order-sensitive fingerprint of a ServiceHarness run: the
// committed pairs in rotation order, and every window's and the totals'
// store-related counters (offered, admitted, shed, dropped, matched, live
// gauge, evictions, segments, hot-swaps, evicted_live; not store_peak,
// which counts entries held and so depends on the store's layout). Tests
// pin these against values recorded from the original id-keyed store
// with its rebuild rotation, so the live-set refactor stays bit-identical.

#ifndef FTOA_TESTS_SERVE_HARNESS_FINGERPRINT_H_
#define FTOA_TESTS_SERVE_HARNESS_FINGERPRINT_H_

#include <cstdint>
#include <cstdio>
#include <ostream>

#include "serve/service_harness.h"

namespace ftoa {

struct HarnessFingerprint {
  int64_t pairs = 0;
  uint64_t pair_hash = 0;
  uint64_t metrics_hash = 0;

  friend bool operator==(const HarnessFingerprint& a,
                         const HarnessFingerprint& b) {
    return a.pairs == b.pairs && a.pair_hash == b.pair_hash &&
           a.metrics_hash == b.metrics_hash;
  }
  friend std::ostream& operator<<(std::ostream& os,
                                  const HarnessFingerprint& f) {
    char text[96];
    std::snprintf(text, sizeof(text), "{%lld, 0x%016llxULL, 0x%016llxULL}",
                  static_cast<long long>(f.pairs),
                  static_cast<unsigned long long>(f.pair_hash),
                  static_cast<unsigned long long>(f.metrics_hash));
    return os << text;
  }
};

/// FNV-1a over the eight little-endian bytes of `value`.
inline uint64_t MixFingerprint(uint64_t hash, int64_t value) {
  const uint64_t bits = static_cast<uint64_t>(value);
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (bits >> (8 * byte)) & 0xffu;
    hash *= 1099511628211ULL;
  }
  return hash;
}

inline HarnessFingerprint FingerprintOf(const ServiceHarness& harness) {
  HarnessFingerprint f;
  f.pairs = static_cast<int64_t>(harness.matched_pairs().size());
  f.pair_hash = 14695981039346656037ULL;
  for (const auto& [worker, task] : harness.matched_pairs()) {
    f.pair_hash = MixFingerprint(MixFingerprint(f.pair_hash, worker), task);
  }
  uint64_t hash = 14695981039346656037ULL;
  for (const WindowMetrics& w : harness.windows()) {
    for (const int64_t value :
         {w.window, w.offered, w.admitted, w.shed, w.dropped_arrivals,
          w.matched, w.live_objects, w.evicted}) {
      hash = MixFingerprint(hash, value);
    }
  }
  const ServiceTotals& t = harness.totals();
  for (const int64_t value :
       {t.windows, t.segments, t.offered, t.admitted, t.shed, t.matched,
        t.evictions, t.dropped_arrivals, t.guide_swaps, t.evicted_live}) {
    hash = MixFingerprint(hash, value);
  }
  f.metrics_hash = hash;
  return f;
}

}  // namespace ftoa

#endif  // FTOA_TESTS_SERVE_HARNESS_FINGERPRINT_H_
