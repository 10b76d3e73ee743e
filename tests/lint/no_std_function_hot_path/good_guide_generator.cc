// lint-fixture: path=src/core/guide_generator.cc
// The required shape: the per-type-pair callback is a template parameter.
namespace ftoa {

class PairEnumerator {
 public:
  template <typename Fn>
  void ForEachFeasibleTypePair(int n, Fn&& fn) const {
    for (int i = 0; i < n; ++i) fn(i, i);
  }
};

}  // namespace ftoa
