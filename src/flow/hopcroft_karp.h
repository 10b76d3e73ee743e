// Hopcroft-Karp maximum-cardinality bipartite matching, O(E * sqrt(V)).
// Used by offline OPT (the paper's OPT curve). The rebuild-per-batch TGOA
// and GR test oracles (tests/baselines/reference_{tgoa,gr}.h) also solve
// one from scratch per arrival or window.
//
// Reusable: `Reset()` rewinds the instance while keeping every buffer
// allocation, and Solve() warm-starts from whatever matching is already
// installed (either left over from a previous Solve on the same graph or
// seeded via `SetMatch`), augmenting only for the remaining exposed nodes.

#ifndef FTOA_FLOW_HOPCROFT_KARP_H_
#define FTOA_FLOW_HOPCROFT_KARP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ftoa {

/// Maximum matching over an explicit bipartite adjacency structure.
class HopcroftKarp {
 public:
  /// Creates an empty graph with `num_left` left and `num_right` right nodes.
  HopcroftKarp(int32_t num_left = 0, int32_t num_right = 0);

  /// Rewinds to an empty graph with the given sides, keeping all buffer
  /// capacity from previous instances (zero allocations once warmed up).
  void Reset(int32_t num_left, int32_t num_right);

  /// Adds an edge between left node `u` and right node `v` (0-based).
  void AddEdge(int32_t u, int32_t v);

  /// Reserve space for `num_edges` edges.
  void ReserveEdges(size_t num_edges);

  /// Warm start: installs the pair (u, v) into the current matching. Both
  /// endpoints must be unmatched; the pair should be an actual edge of the
  /// graph for the resulting matching to be meaningful.
  void SetMatch(int32_t u, int32_t v);

  /// Computes a maximum matching; returns its cardinality. Idempotent, and
  /// incremental: an existing matching (prior Solve or SetMatch) is kept
  /// and only exposed nodes are augmented from.
  int64_t Solve();

  /// Right partner of left node `u` after Solve(), or -1.
  int32_t MatchOfLeft(int32_t u) const {
    return match_left_[static_cast<size_t>(u)];
  }
  /// Left partner of right node `v` after Solve(), or -1.
  int32_t MatchOfRight(int32_t v) const {
    return match_right_[static_cast<size_t>(v)];
  }

  size_t num_edges() const { return edge_to_.size(); }

 private:
  bool Bfs();
  bool Dfs(int32_t u);

  int32_t num_left_ = 0;
  int32_t num_right_ = 0;
  // CSR-ish adjacency built lazily at Solve() time from the edge list.
  std::vector<int32_t> edge_from_;
  std::vector<int32_t> edge_to_;
  std::vector<int32_t> adj_start_;
  std::vector<int32_t> adj_;
  bool adjacency_built_ = false;

  std::vector<int32_t> match_left_;
  std::vector<int32_t> match_right_;
  std::vector<int32_t> dist_;
  std::vector<int32_t> queue_;
  std::vector<int32_t> iter_;
  std::vector<int32_t> stack_;
};

}  // namespace ftoa

#endif  // FTOA_FLOW_HOPCROFT_KARP_H_
