#ifndef FLOWMOTIF_CORE_STRUCTURAL_MATCH_H_
#define FLOWMOTIF_CORE_STRUCTURAL_MATCH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/match_list.h"
#include "core/motif.h"
#include "graph/time_series_graph.h"
#include "util/cancellation.h"
#include "util/thread_pool.h"

namespace flowmotif {

/// Phase P1 of the paper's two-phase algorithm (Sec. 4): finds every
/// structural match of the motif graph GM in the time-series graph GT,
/// disregarding edge labels' time series and the delta / phi constraints.
///
/// For spanning-path motifs the implementation follows the paper: a
/// modified depth-first search that walks the motif's spanning path.
/// Every graph vertex is tried as the image of the path's origin; at
/// step i the (i+1)-th path node is either already bound (the edge must
/// exist between the bound vertices — this realizes the "last vertex
/// equals first vertex" cycle check and all other repeats) or is bound
/// to each out-neighbor that keeps the binding injective.
///
/// General motifs (forks/joins, the Sec. 7 extension) are matched by
/// backtracking over the edges in label order: a new target vertex is
/// drawn from the out-neighbors of the bound source, a new source vertex
/// from the in-neighbors of the bound target, and an edge with both
/// endpoints fresh scans the pair table.
///
/// Both searches read only the graph's compact CSR arrays (PairDst,
/// InSrc, FindPairIndex), never the PairEdge records with their series,
/// and keep no per-graph scratch: injectivity is checked against the
/// at most num_nodes() entries of the binding itself, so a work unit
/// costs exactly its own DFS — no num_vertices()-sized table to
/// allocate, zero or clear.
///
/// Enumeration order is deterministic: origins in vertex order, neighbors
/// in CSR (destination / source) order.
///
/// The search decomposes into independent *work units* — one candidate
/// origin vertex for path motifs, one pair edge as the image of the
/// first labeled edge for general motifs — which is what the engine's
/// pipeline partitions into P1 shards: per-unit match lists concatenated
/// in unit order reproduce the serial order exactly.
class StructuralMatcher {
 public:
  /// Visitor invoked per match with a view of the binding that is valid
  /// only during the call; return false to stop the search early.
  using MatchVisitor = std::function<bool(MatchRef)>;

  StructuralMatcher(const TimeSeriesGraph& graph, const Motif& motif);
  // The matcher keeps a reference to the graph: temporaries would dangle.
  StructuralMatcher(TimeSeriesGraph&&, const Motif&) = delete;

  /// Streams every structural match to `visitor`.
  void FindAll(const MatchVisitor& visitor) const;

  /// Number of independent work units the search decomposes into: one
  /// per graph vertex (path motifs, candidate origins) or one per pair
  /// edge (general motifs, images of the first labeled edge). Units may
  /// be empty — e.g. an origin with no out-edge.
  int64_t NumWorkUnits() const;

  /// Streams every match whose work unit lies in [begin, end), in the
  /// serial FindAll order. FindAll is exactly
  /// FindInUnits(0, NumWorkUnits(), visitor). With a non-null `control`
  /// the scan checks it at site "p1.unit" before every unit; a stop
  /// there ends the scan after the units before it, so the matches
  /// streamed are those of a leading run of units. Returns false iff
  /// the visitor or the control stopped the search early.
  bool FindInUnits(int64_t begin, int64_t end, const MatchVisitor& visitor,
                   QueryControl* control = nullptr) const;

  /// Materializes all matches as owning bindings — the serial reference
  /// the tests compare every other route against.
  std::vector<MatchBinding> FindAllMatches() const;

  /// All matches, flat, in FindAll order. With a pool of more than one
  /// thread the work units are split into contiguous ranges scanned in
  /// parallel and the per-range lists concatenated in range order —
  /// byte-identical for every thread count.
  MatchList FindMatchList(ThreadPool* pool = nullptr) const;

  /// FindMatchList(pool) as owning bindings.
  std::vector<MatchBinding> FindAllMatchesParallel(ThreadPool* pool) const;

  /// Counts matches without materializing them.
  int64_t CountMatches() const;

  /// Verifies that `binding` is a structural match (used by tests and to
  /// validate externally supplied bindings): injective, within range, and
  /// every motif edge maps to a connected pair.
  bool IsMatch(const MatchBinding& binding) const;

 private:
  struct Search;

  void SearchUnit(int64_t unit, Search* search) const;
  void Dfs(size_t step, Search* search) const;
  void GeneralDfs(int edge_idx, Search* search) const;

  const TimeSeriesGraph& graph_;
  const Motif motif_;  // by value: motifs are tiny and callers often pass
                       // temporaries
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_CORE_STRUCTURAL_MATCH_H_
