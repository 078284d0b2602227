#ifndef FLOWMOTIF_CORE_MULTI_MATCHER_H_
#define FLOWMOTIF_CORE_MULTI_MATCHER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/match_list.h"
#include "core/motif.h"
#include "graph/time_series_graph.h"
#include "util/status.h"

namespace flowmotif {

/// Shared-prefix structural matching for a *set* of path motifs — the
/// paper's future-work optimization (Sec. 7: "two or more structural
/// matches may share the same prefix, we can compute ... their common
/// prefix simultaneously").
///
/// The motifs' spanning paths are merged into a trie; one depth-first
/// search over graph x trie enumerates the matches of every motif in a
/// single pass, so the work for shared path prefixes (for the paper's
/// catalog, all ten motifs share the prefix 0-1, the three chains are
/// prefixes of each other, etc.) is done once instead of once per motif.
///
/// Requirements: all motifs are spanning-path motifs with canonical node
/// labels — node ids appear in first-occurrence order along the path
/// (0, 1, 2, ...), which makes shared prefixes syntactically identical.
/// Every Fig. 3 catalog motif is canonical.
class MultiStructuralMatcher {
 public:
  /// Visitor receives (motif index within the input set, a view of the
  /// binding valid only during the call); return false to stop the
  /// whole search.
  using Visitor = std::function<bool(size_t, MatchRef)>;

  /// Validates the motif set; NotFound/InvalidArgument on unsupported
  /// motifs (non-path or non-canonical labels).
  static StatusOr<MultiStructuralMatcher> Create(
      const TimeSeriesGraph& graph, std::vector<Motif> motifs);
  static StatusOr<MultiStructuralMatcher> Create(TimeSeriesGraph&&,
                                                 std::vector<Motif>) = delete;

  /// Streams every (motif, match) pair.
  void FindAll(const Visitor& visitor) const;

  /// Match counts per motif, in input order.
  std::vector<int64_t> CountAll() const;

  int64_t num_trie_nodes() const {
    return static_cast<int64_t>(nodes_.size());
  }

 private:
  /// One trie node: the path position after consuming `depth` path
  /// entries. `terminal_motifs` lists motifs whose path ends here.
  struct TrieNode {
    std::vector<std::pair<MotifNode, size_t>> children;  // (next id, node)
    std::vector<size_t> terminal_motifs;
  };

  MultiStructuralMatcher(const TimeSeriesGraph& graph,
                         std::vector<Motif> motifs);

  void Dfs(size_t node, VertexId prev_vertex, int bound_nodes,
           MatchBinding* binding, const Visitor& visitor, bool* stop) const;

  const TimeSeriesGraph& graph_;
  std::vector<Motif> motifs_;
  std::vector<TrieNode> nodes_;  // nodes_[0] is the root (empty path)
  int max_nodes_ = 0;            // max motif node count across the set
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_CORE_MULTI_MATCHER_H_
