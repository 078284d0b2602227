#include "core/multi_matcher.h"

#include <algorithm>

#include "util/logging.h"

namespace flowmotif {

namespace {

/// Canonical labeling: node ids appear in first-occurrence order along
/// the path (0, 1, 2, ...). Shared path prefixes of canonical motifs are
/// syntactically identical, which is what lets the trie merge them.
bool IsCanonicalPath(const std::vector<MotifNode>& path) {
  MotifNode next_new = 0;
  for (MotifNode n : path) {
    if (n == next_new) {
      ++next_new;
    } else if (n > next_new) {
      return false;
    }
  }
  return true;
}

}  // namespace

StatusOr<MultiStructuralMatcher> MultiStructuralMatcher::Create(
    const TimeSeriesGraph& graph, std::vector<Motif> motifs) {
  if (motifs.empty()) {
    return Status::InvalidArgument("motif set must not be empty");
  }
  for (const Motif& motif : motifs) {
    if (!motif.is_path()) {
      return Status::InvalidArgument("multi-matching requires path motifs; " +
                                     motif.name() + " is not one");
    }
    if (!IsCanonicalPath(motif.path())) {
      return Status::InvalidArgument("motif " + motif.name() +
                                     " is not canonically labeled");
    }
  }
  return MultiStructuralMatcher(graph, std::move(motifs));
}

MultiStructuralMatcher::MultiStructuralMatcher(const TimeSeriesGraph& graph,
                                               std::vector<Motif> motifs)
    : graph_(graph), motifs_(std::move(motifs)) {
  nodes_.push_back(TrieNode{});  // root: empty path
  for (size_t m = 0; m < motifs_.size(); ++m) {
    max_nodes_ = std::max(max_nodes_, motifs_[m].num_nodes());
    size_t node = 0;
    for (MotifNode entry : motifs_[m].path()) {
      auto& children = nodes_[node].children;
      auto it = std::find_if(children.begin(), children.end(),
                             [entry](const std::pair<MotifNode, size_t>& c) {
                               return c.first == entry;
                             });
      if (it == children.end()) {
        nodes_.push_back(TrieNode{});
        // nodes_ may have reallocated: re-take the reference.
        nodes_[node].children.push_back({entry, nodes_.size() - 1});
        node = nodes_.size() - 1;
      } else {
        node = it->second;
      }
    }
    nodes_[node].terminal_motifs.push_back(m);
  }
}

void MultiStructuralMatcher::FindAll(const Visitor& visitor) const {
  FLOWMOTIF_CHECK(visitor != nullptr);
  MatchBinding binding(static_cast<size_t>(max_nodes_), -1);
  bool stop = false;
  Dfs(0, /*prev_vertex=*/-1, /*bound_nodes=*/0, &binding, visitor, &stop);
}

void MultiStructuralMatcher::Dfs(size_t node, VertexId prev_vertex,
                                 int bound_nodes, MatchBinding* binding,
                                 const Visitor& visitor, bool* stop) const {
  if (*stop) return;

  // Motifs whose whole path has been consumed match with the current
  // binding prefix.
  for (size_t motif_idx : nodes_[node].terminal_motifs) {
    const size_t n = static_cast<size_t>(motifs_[motif_idx].num_nodes());
    if (!visitor(motif_idx, MatchRef(binding->data(), n))) {
      *stop = true;
      return;
    }
  }

  for (const auto& [label, child] : nodes_[node].children) {
    if (*stop) return;
    if (label < bound_nodes) {
      // Revisit of an already-bound motif node: only the edge existence
      // must hold (cycle / repeat step).
      const VertexId v = (*binding)[static_cast<size_t>(label)];
      if (prev_vertex >= 0 && graph_.FindPairIndex(prev_vertex, v) < 0) {
        continue;
      }
      Dfs(child, v, bound_nodes, binding, visitor, stop);
      continue;
    }
    // Canonical labels bind in order: `label == bound_nodes` is a fresh
    // motif node.
    FLOWMOTIF_CHECK_EQ(label, bound_nodes);
    if (prev_vertex < 0) {
      // Path origin: try every vertex with an out-edge.
      for (VertexId v = 0; v < graph_.num_vertices() && !*stop; ++v) {
        if (graph_.OutDegree(v) == 0) continue;
        (*binding)[static_cast<size_t>(label)] = v;
        Dfs(child, v, bound_nodes + 1, binding, visitor, stop);
        (*binding)[static_cast<size_t>(label)] = -1;
      }
      continue;
    }
    for (size_t p = graph_.OutBegin(prev_vertex);
         p < graph_.OutEnd(prev_vertex) && !*stop; ++p) {
      const VertexId to = graph_.PairDst(p);
      // Injectivity against the bound_nodes entries bound so far.
      if (std::find(binding->begin(), binding->begin() + bound_nodes, to) !=
          binding->begin() + bound_nodes) {
        continue;
      }
      (*binding)[static_cast<size_t>(label)] = to;
      Dfs(child, to, bound_nodes + 1, binding, visitor, stop);
      (*binding)[static_cast<size_t>(label)] = -1;
    }
  }
}

std::vector<int64_t> MultiStructuralMatcher::CountAll() const {
  std::vector<int64_t> counts(motifs_.size(), 0);
  FindAll([&counts](size_t motif_idx, MatchRef) {
    ++counts[motif_idx];
    return true;
  });
  return counts;
}

}  // namespace flowmotif
