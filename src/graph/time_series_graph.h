#ifndef FLOWMOTIF_GRAPH_TIME_SERIES_GRAPH_H_
#define FLOWMOTIF_GRAPH_TIME_SERIES_GRAPH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/edge_series.h"
#include "graph/interaction_graph.h"
#include "graph/types.h"
#include "util/random.h"
#include "util/status.h"

namespace flowmotif {

/// Immutable time-series graph GT(V, ET): all multigraph edges between an
/// ordered vertex pair are merged into one edge carrying the interaction
/// time series R(u, v) (paper Sec. 4, Fig. 5).
///
/// Pair edges are stored sorted by (src, dst). The topology lives apart
/// from them in plain CSR arrays: out_begin / out_dst (the destination
/// of every pair, so the out-neighbours of v are one contiguous run of
/// VertexIds) and in_begin / in_src (the sources of every reverse slot,
/// grouped by destination in (dst, src) order). Every topology walk —
/// phase P1's searches, FindPairIndex's binary search, the streaming
/// monitor's reverse BFS — reads those 4-byte arrays and never touches
/// a PairEdge, whose series makes it ~100 bytes.
///
/// Storage is split along the flow/structure axis: the CSR index tables
/// and every series' timestamp array are immutable shared storage, while
/// flow values (and their prefix sums) are owned per graph. Copying a
/// graph — and in particular WithPermutedFlows, the Sec. 6.3 null-model
/// randomization — therefore shares the structure and timestamps by
/// identity and duplicates only the flow arrays. A whole significance
/// ensemble stores one copy of the timestamps plus N flow arrays, and
/// timestamp-keyed caches (SharedWindowCache) stay warm across all N+1
/// graphs.
///
/// The class is immutable after Build and therefore safe for concurrent
/// readers. Verify() checks every layout invariant.
class TimeSeriesGraph {
 public:
  /// One edge of GT with its time series.
  struct PairEdge {
    VertexId src;
    VertexId dst;
    EdgeSeries series;
  };

  /// Aggregate statistics (Table 3 of the paper).
  struct Stats {
    int64_t num_vertices = 0;
    int64_t num_connected_pairs = 0;  // |ET|
    int64_t num_interactions = 0;     // |E| of the multigraph
    double avg_flow_per_edge = 0.0;   // mean interaction flow
    Timestamp min_time = 0;
    Timestamp max_time = 0;
  };

  TimeSeriesGraph();

  /// Builds from a multigraph. Groups edges by (src, dst), sorts each
  /// series by time, and assembles the CSR index.
  static TimeSeriesGraph Build(const InteractionGraph& multigraph);

  /// Extends `base` with `new_edges`, producing the graph that Build
  /// would return on the union multigraph with `num_vertices` vertices —
  /// byte-identical series and CSR layout — while sharing as much of
  /// `base`'s immutable storage as possible. Series of pairs untouched
  /// by `new_edges` keep their timestamp storage and identity (so
  /// window-cache entries and skeleton traces recorded against them
  /// stay valid); dirty pairs get fresh storage stamped with `epoch`.
  /// The CSR index is shared by identity unless `new_edges` introduces
  /// a new (src, dst) pair or `num_vertices` grows, in which case it is
  /// rebuilt under `epoch`. This is the seal step of graph/epoch_log.h.
  /// Requires num_vertices >= base.num_vertices().
  static TimeSeriesGraph ExtendWith(
      const TimeSeriesGraph& base,
      std::vector<InteractionGraph::Edge> new_edges, int64_t num_vertices,
      EpochId epoch);

  int64_t num_vertices() const {
    return static_cast<int64_t>(
        index_->out_begin.empty() ? 0 : index_->out_begin.size() - 1);
  }
  int64_t num_pairs() const { return static_cast<int64_t>(pairs_.size()); }

  /// All pair edges, sorted by (src, dst).
  const std::vector<PairEdge>& pairs() const { return pairs_; }
  const PairEdge& pair(size_t i) const { return pairs_[i]; }

  /// Index range [OutBegin(v), OutEnd(v)) of pair edges with source v.
  size_t OutBegin(VertexId v) const { return index_->out_begin[v]; }
  size_t OutEnd(VertexId v) const { return index_->out_begin[v + 1]; }
  int64_t OutDegree(VertexId v) const {
    return static_cast<int64_t>(OutEnd(v) - OutBegin(v));
  }

  /// Destination of pair edge p, read from the compact CSR array:
  /// equal to pair(p).dst.
  VertexId PairDst(size_t p) const { return index_->out_dst[p]; }

  /// Reverse adjacency: for k in [InBegin(v), InEnd(v)), InSrc(k) is a
  /// vertex u with a pair edge (u, v), in ascending u. Used by the
  /// general-motif matcher to bind a new source vertex of a fan-in edge
  /// and by the streaming monitor's reverse BFS.
  size_t InBegin(VertexId v) const { return index_->in_begin[v]; }
  size_t InEnd(VertexId v) const { return index_->in_begin[v + 1]; }
  VertexId InSrc(size_t k) const { return index_->in_src[k]; }
  int64_t InDegree(VertexId v) const {
    return static_cast<int64_t>(InEnd(v) - InBegin(v));
  }

  /// The series from u to v, or nullptr if the pair is not connected.
  const EdgeSeries* FindSeries(VertexId u, VertexId v) const;

  /// Index of the pair edge (u, v) in pairs(), or -1.
  int64_t FindPairIndex(VertexId u, VertexId v) const;

  /// Dataset statistics (Table 3).
  Stats ComputeStats() const;

  /// Returns a *flow-permutation view*: same structure and timestamps —
  /// shared by identity, not copied — with the multiset of flow values
  /// randomly permuted across all interactions, the randomization used
  /// for the significance analysis (Sec. 6.3). The view owns only its
  /// flow arrays (plus prefix sums); every series reports the same
  /// timestamp_identity() as the original, so timestamp-keyed window
  /// caches built on the real graph are warm for the view. The original
  /// graph is never modified. The RNG stream consumed is identical to
  /// the pre-view (deep-copying) implementation, so a seed reproduces
  /// the same flows. Collects the flows in pair order, shuffles them,
  /// and returns WithFlows of the shuffled vector.
  TimeSeriesGraph WithPermutedFlows(Rng* rng) const;

  /// The flow view carrying `pair_order_flows` — one positive flow per
  /// interaction, pair by pair in pairs() order, each pair's flows in
  /// series order (the layout FlowPermutationStream draws) — over this
  /// graph's shared structure and timestamps, with prefix sums rebuilt
  /// per series. Like WithPermutedFlows, the view's series are checked
  /// for time order only (Verify).
  TimeSeriesGraph WithFlows(const std::vector<Flow>& pair_order_flows) const;

  /// Deep copy with freshly owned timestamp and topology storage: every
  /// series gets a new timestamp_identity(), so no timestamp-keyed cache
  /// entry can alias the source graph. The pre-refactor copying
  /// semantics, retained for the significance equivalence reference and
  /// for callers that need storage-independent graphs.
  TimeSeriesGraph DeepCopy() const;

  /// Stable identity of the shared CSR topology storage: equal for this
  /// graph and every WithPermutedFlows view of it — and for every
  /// ExtendWith epoch that adds no new pair or vertex — distinct for
  /// separately built (or deep-copied) graphs and for epochs that
  /// changed the topology. Exposed for tests and skeleton replay.
  StorageIdentity topology_identity() const {
    return StorageIdentity{index_.get(), topology_epoch_};
  }

  /// Human-readable one-line summary for logs.
  std::string DebugString() const;

  /// Checks every layout invariant: pairs strictly sorted by (src, dst)
  /// with endpoints in range; CSR bounds (offset tables of
  /// num_vertices() + 1 non-decreasing entries ending at num_pairs());
  /// out_dst[p] == pair(p).dst; in_src holding exactly the pair sources,
  /// in (dst, src) order; each series non-empty, sorted by (t, f), with
  /// positive flows and prefix sums equal to their running total. A
  /// flow-permutation view (and its deep copies) keeps the timestamps
  /// but not the flow tie-break, so its series are checked for time
  /// order only. OK or Internal naming the first violation. Tests call
  /// it after every constructor; debug builds also after Build and
  /// ExtendWith.
  Status Verify() const;

 private:
  /// CSR index tables; immutable after Build and shared with
  /// flow-permutation views and topology-preserving epochs.
  struct Index {
    std::vector<size_t> out_begin;  // size num_vertices()+1
    std::vector<VertexId> out_dst;  // per pair: pair(p).dst
    std::vector<size_t> in_begin;   // size num_vertices()+1
    std::vector<VertexId> in_src;   // per reverse slot, by (dst, src)
  };

  /// Assembles the CSR forward/reverse offset tables over `pairs`
  /// (sorted by (src, dst)) for an `n`-vertex graph.
  static Index BuildIndex(const std::vector<PairEdge>& pairs, int64_t n);

  std::vector<PairEdge> pairs_;  // sorted by (src, dst)
  std::shared_ptr<const Index> index_;  // never null
  // Epoch at which index_ was created; part of topology_identity().
  EpochId topology_epoch_ = 0;
  // Set by WithFlows: equal-time elements need not be in flow order
  // (see Verify).
  bool flows_permuted_ = false;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_GRAPH_TIME_SERIES_GRAPH_H_
