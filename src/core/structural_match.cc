#include "core/structural_match.h"

#include <set>

#include "util/failpoint.h"
#include "util/logging.h"
#include "util/partition.h"

namespace flowmotif {

StructuralMatcher::StructuralMatcher(const TimeSeriesGraph& graph,
                                     const Motif& motif)
    : graph_(graph), motif_(motif) {}

/// Per-call search state: the binding under construction (-1 = motif
/// node not yet bound), the visitor and the early-stop flag.
struct StructuralMatcher::Search {
  VertexId* binding;
  size_t num_nodes;
  const MatchVisitor* visitor;
  bool stop = false;

  /// The injectivity filter: a graph vertex may back at most one motif
  /// node. The binding has at most num_nodes entries (motifs are tiny),
  /// so scanning it beats any per-vertex table.
  bool Uses(VertexId v) const {
    for (size_t i = 0; i < num_nodes; ++i) {
      if (binding[i] == v) return true;
    }
    return false;
  }

  void Emit() {
    if (!(*visitor)(MatchRef(binding, num_nodes))) stop = true;
  }
};

void StructuralMatcher::FindAll(const MatchVisitor& visitor) const {
  FindInUnits(0, NumWorkUnits(), visitor);
}

int64_t StructuralMatcher::NumWorkUnits() const {
  return motif_.is_path() ? static_cast<int64_t>(graph_.num_vertices())
                          : static_cast<int64_t>(graph_.num_pairs());
}

bool StructuralMatcher::FindInUnits(int64_t begin, int64_t end,
                                    const MatchVisitor& visitor,
                                    QueryControl* control) const {
  FLOWMOTIF_CHECK(visitor != nullptr);
  FLOWMOTIF_CHECK_GE(begin, 0);
  FLOWMOTIF_CHECK_LE(end, NumWorkUnits());
  std::vector<VertexId> binding(static_cast<size_t>(motif_.num_nodes()), -1);
  Search search{binding.data(), binding.size(), &visitor};
  for (int64_t unit = begin; unit < end && !search.stop; ++unit) {
    if (control != nullptr && control->CheckAt(failpoint::kP1Unit)) {
      return false;
    }
    SearchUnit(unit, &search);
  }
  return !search.stop;
}

void StructuralMatcher::SearchUnit(int64_t unit, Search* search) const {
  VertexId* const binding = search->binding;
  if (motif_.is_path()) {
    const VertexId v = static_cast<VertexId>(unit);
    if (graph_.OutDegree(v) == 0) return;  // origin needs an out-edge
    const MotifNode origin = motif_.path().front();
    binding[origin] = v;
    Dfs(0, search);
    binding[origin] = -1;
    return;
  }
  // General motif: the unit binds the first labeled edge to one pair
  // edge (both endpoints are necessarily fresh at edge 0), then the
  // usual label-order backtracking takes over. The pair's source is the
  // vertex whose CSR range holds it.
  const size_t p = static_cast<size_t>(unit);
  VertexId lo = 0;
  VertexId hi = static_cast<VertexId>(graph_.num_vertices()) - 1;
  while (lo < hi) {
    const VertexId mid = lo + (hi - lo) / 2;
    if (graph_.OutEnd(mid) > p) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const VertexId src = lo;
  const VertexId dst = graph_.PairDst(p);
  if (src == dst) return;  // motifs have no self-loops
  const auto [src_node, dst_node] = motif_.edge(0);
  binding[src_node] = src;
  binding[dst_node] = dst;
  GeneralDfs(1, search);
  binding[dst_node] = -1;
  binding[src_node] = -1;
}

MatchList StructuralMatcher::FindMatchList(ThreadPool* pool) const {
  const size_t stride = static_cast<size_t>(motif_.num_nodes());
  const auto append_to = [](MatchList* list) {
    return [list](MatchRef match) {
      list->Append(match);
      return true;
    };
  };
  if (pool == nullptr || pool->num_threads() == 1) {
    MatchList matches(stride);
    FindAll(append_to(&matches));
    return matches;
  }
  // Several unit ranges per worker (the shared chunking heuristic):
  // match density varies wildly across origins, so dynamic scheduling
  // needs the slack.
  const std::vector<IndexRange> ranges =
      PartitionIndexSpace(NumWorkUnits(), pool->num_threads());
  std::vector<MatchList> shards(ranges.size(), MatchList(stride));
  pool->ParallelFor(static_cast<int64_t>(ranges.size()), [&](int64_t r) {
    const IndexRange& range = ranges[static_cast<size_t>(r)];
    FindInUnits(range.begin, range.end,
                append_to(&shards[static_cast<size_t>(r)]));
  });

  // Deterministic merge: concatenating the shards in range order is the
  // serial discovery order.
  size_t total = 0;
  for (const MatchList& shard : shards) total += shard.size();
  MatchList matches(stride);
  matches.Reserve(total);
  for (MatchList& shard : shards) {
    matches.Append(shard);
    shard.Release();
  }
  return matches;
}

std::vector<MatchBinding> StructuralMatcher::FindAllMatchesParallel(
    ThreadPool* pool) const {
  FLOWMOTIF_CHECK(pool != nullptr);
  return FindMatchList(pool).ToBindings();
}

void StructuralMatcher::GeneralDfs(int edge_idx, Search* search) const {
  if (search->stop) return;
  if (edge_idx == motif_.num_edges()) {
    search->Emit();
    return;
  }
  VertexId* const binding = search->binding;
  const auto [src_node, dst_node] = motif_.edge(edge_idx);
  const VertexId src = binding[src_node];
  const VertexId dst = binding[dst_node];

  if (src >= 0 && dst >= 0) {
    if (graph_.FindPairIndex(src, dst) >= 0) GeneralDfs(edge_idx + 1, search);
    return;
  }
  if (src >= 0) {
    // New target: out-neighbors of the bound source.
    for (size_t p = graph_.OutBegin(src);
         p < graph_.OutEnd(src) && !search->stop; ++p) {
      const VertexId to = graph_.PairDst(p);
      if (search->Uses(to)) continue;
      binding[dst_node] = to;
      GeneralDfs(edge_idx + 1, search);
      binding[dst_node] = -1;
    }
    return;
  }
  if (dst >= 0) {
    // New source: in-neighbors of the bound target.
    for (size_t k = graph_.InBegin(dst);
         k < graph_.InEnd(dst) && !search->stop; ++k) {
      const VertexId from = graph_.InSrc(k);
      if (search->Uses(from)) continue;
      binding[src_node] = from;
      GeneralDfs(edge_idx + 1, search);
      binding[src_node] = -1;
    }
    return;
  }
  // Both endpoints fresh (only possible for motifs whose label order
  // visits a new weak component before linking it — rare but legal):
  // scan the pair table in (src, dst) order through the CSR arrays.
  for (VertexId from = 0; from < graph_.num_vertices() && !search->stop;
       ++from) {
    if (search->Uses(from)) continue;
    for (size_t p = graph_.OutBegin(from);
         p < graph_.OutEnd(from) && !search->stop; ++p) {
      const VertexId to = graph_.PairDst(p);
      if (to == from || search->Uses(to)) continue;
      binding[src_node] = from;
      binding[dst_node] = to;
      GeneralDfs(edge_idx + 1, search);
      binding[dst_node] = -1;
      binding[src_node] = -1;
    }
  }
}

void StructuralMatcher::Dfs(size_t step, Search* search) const {
  if (search->stop) return;
  const std::vector<MotifNode>& path = motif_.path();
  if (step + 1 == path.size()) {
    search->Emit();
    return;
  }
  VertexId* const binding = search->binding;
  const VertexId from = binding[path[step]];
  const MotifNode next_node = path[step + 1];
  const VertexId bound_to = binding[next_node];

  if (bound_to >= 0) {
    // Node already fixed by an earlier path position (cycle / repeat):
    // only the edge existence must be verified.
    if (graph_.FindPairIndex(from, bound_to) >= 0) Dfs(step + 1, search);
    return;
  }

  for (size_t p = graph_.OutBegin(from);
       p < graph_.OutEnd(from) && !search->stop; ++p) {
    const VertexId to = graph_.PairDst(p);
    if (search->Uses(to)) continue;  // injectivity
    binding[next_node] = to;
    Dfs(step + 1, search);
    binding[next_node] = -1;
  }
}

std::vector<MatchBinding> StructuralMatcher::FindAllMatches() const {
  std::vector<MatchBinding> matches;
  FindAll([&matches](MatchRef match) {
    matches.push_back(match.ToBinding());
    return true;
  });
  return matches;
}

int64_t StructuralMatcher::CountMatches() const {
  int64_t count = 0;
  FindAll([&count](MatchRef) {
    ++count;
    return true;
  });
  return count;
}

bool StructuralMatcher::IsMatch(const MatchBinding& binding) const {
  if (static_cast<int>(binding.size()) != motif_.num_nodes()) return false;
  std::set<VertexId> used;
  for (VertexId v : binding) {
    if (v < 0 || v >= graph_.num_vertices()) return false;
    if (!used.insert(v).second) return false;
  }
  for (int i = 0; i < motif_.num_edges(); ++i) {
    const auto [src, dst] = motif_.edge(i);
    if (graph_.FindPairIndex(binding[static_cast<size_t>(src)],
                             binding[static_cast<size_t>(dst)]) < 0) {
      return false;
    }
  }
  return true;
}

}  // namespace flowmotif
