// lint-fixture: path=src/core/guide_generator.cc
// A type-erased per-type-pair callback in the guide generator's network
// build.
#include <functional>

namespace ftoa {

class PairEnumerator {
 public:
  void ForEachFeasibleTypePair(int n, const std::function<void(int, int)>& fn) const;  // lint-expect: no-std-function-hot-path
};

}  // namespace ftoa
