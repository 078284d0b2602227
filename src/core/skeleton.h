#ifndef FLOWMOTIF_CORE_SKELETON_H_
#define FLOWMOTIF_CORE_SKELETON_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/motif.h"
#include "core/structural_match.h"
#include "core/window_cursor.h"
#include "graph/time_series_graph.h"
#include "util/status.h"

namespace flowmotif {

/// Record-once / replay-many enumeration skeletons.
///
/// The flow-permuted graphs of the significance ensemble (Sec. 6.3)
/// share every timestamp-derived artifact with the real graph —
/// structural matches, window lists, cursor slides, domination probes,
/// and the *shape* of the Algorithm 1 recursion. Only the flow values
/// differ, and every flow the recursion ever consults is an Eq. 2
/// prefix-sum subtraction over a contiguous index range. So the
/// enumeration can be split:
///
///   1. Record (once, on the real graph): run the timestamp-only
///      recursion and emit a flat trace — a DAG of suffix states whose
///      edges carry (lo, hi, child) with lo/hi absolute indices into a
///      flat concatenation of per-series prefix-sum arrays.
///   2. Replay (once per flow assignment): evaluate every edge flow as
///      prefix[hi] - prefix[lo] and run a linear DP over the DAG
///      (core/skeleton_kernel.h) — dense array passes, no recursion,
///      no searches.
///
/// The DAG is the counting recursion's memo structure made explicit:
/// within one (match, window), the set of valid suffix completions
/// depends only on (level, first admissible index), so states are
/// keyed on that pair and shared across all prefixes reaching them.
/// Replay therefore costs O(trace edges), and the trace is the size of
/// the *memoized* recursion at phi = 0, exponentially smaller than the
/// leaf tree it summarizes.
///
/// A skeleton records no flow values and no phi: one recording answers
/// any flow assignment over the same timestamp storage (the whole
/// permutation ensemble) and any phi threshold (a parameter sweep).

/// The part of one prefix block a trace reads: pair `pair`'s block
/// starts at arena index `begin`, and no recorded edge reads an entry
/// past `last` (absolute, inclusive). Filling [begin, last] left to
/// right from the block start reproduces every entry the trace reads.
struct PrefixExtent {
  uint32_t pair;
  uint32_t begin;
  uint32_t last;

  bool operator==(const PrefixExtent& other) const {
    return pair == other.pair && begin == other.begin && last == other.last;
  }
};

/// Merges `extents` (sorted by pair, as every skeleton stores them) into
/// `*into` (sorted by pair): one entry per pair, reaching the larger of
/// the two `last`s — the blocks a set of skeletons reads together.
void UnionPrefixExtents(const std::vector<PrefixExtent>& extents,
                        std::vector<PrefixExtent>* into);

/// Draws the significance ensemble's flow permutations as flat
/// pair-order flow vectors: draw i is
/// ApplyKeyedPermutation(PairOrderFlows(), seed, i) — the flows of
/// TimeSeriesGraph::WithPermutedFlows(seed, i) — for i >= 1 (task 0 of
/// the ensemble is the real graph). Draws are keyed, so DrawInto may be
/// called for any draw, in any order and from any thread;
/// NextPermutationInto walks draws 1, 2, ... in order.
class FlowPermutationStream {
 public:
  FlowPermutationStream(const TimeSeriesGraph& graph, uint64_t seed);

  /// Writes the next draw (1, 2, ... on successive calls) into `*flows`
  /// (pair order, one entry per interaction).
  void NextPermutationInto(std::vector<Flow>* flows);

  /// Writes draw `draw` into `*flows`. Thread-safe (const).
  void DrawInto(uint64_t draw, std::vector<Flow>* flows) const;

  /// The real graph's flows in pair order: the values every draw
  /// permutes.
  const std::vector<Flow>& original() const { return original_; }
  uint64_t seed() const { return seed_; }

 private:
  std::vector<Flow> original_;
  uint64_t seed_;
  uint64_t drawn_ = 0;  // draws handed out by NextPermutationInto
};

/// A flat concatenation of per-series flow prefix-sum arrays in pair
/// order: pair p's block holds its series' n_p + 1 prefix entries, so
/// any Eq. 2 range flow is a subtraction of two entries of one array.
/// The layout depends only on the topology (series lengths in pair
/// order), so every graph of a flow-permutation ensemble fills the
/// same offsets and a recorded skeleton's absolute indices are valid
/// for all of them.
///
/// The extent fills write only the prefix blocks a set of skeletons
/// reads (their PrefixExtents); every other entry keeps whatever it
/// held, and the storage is not zeroed on allocation, so pages no fill
/// touches are never faulted in. Each written entry is accumulated
/// exactly as the full fill accumulates it, so a replay of those
/// skeletons reads the same bits either way.
class FlowPrefixArena {
 public:
  /// Copies `graph`'s per-series prefix arrays into the arena
  /// (allocating the layout on first use). Subsequent fills must come
  /// from graphs sharing the same topology identity.
  void FillFromGraph(const TimeSeriesGraph& graph);
  /// The same, restricted to `extents`.
  void FillFromGraph(const TimeSeriesGraph& graph,
                     const std::vector<PrefixExtent>& extents);

  /// Rebuilds the prefix data from a flat pair-order flow vector (one
  /// entry per interaction, as produced by FlowPermutationStream).
  /// The accumulation order matches EdgeSeries::RebuildPrefix, so the
  /// arena is bit-identical to the prefix arrays a WithFlows view
  /// carrying the same flows would own. `layout_graph` provides the
  /// topology; `flows` must have one entry per interaction.
  void FillFromFlows(const TimeSeriesGraph& layout_graph,
                     const std::vector<Flow>& flows);

  /// Fills `extents` with draw `draw` of `draws`, evaluating the keyed
  /// permutation only on the slots those blocks accumulate: every
  /// entry inside an extent equals FillFromFlows of the full draw, bit
  /// for bit. `draws` must permute `layout_graph`'s flows.
  void FillFromDraw(const TimeSeriesGraph& layout_graph,
                    const FlowPermutationStream& draws, uint64_t draw,
                    const std::vector<PrefixExtent>& extents);

  const double* data() const { return prefix_.get(); }
  size_t size() const { return size_; }
  StorageIdentity topology_identity() const { return topology_identity_; }

  /// Offset of pair p's prefix block; the block has series-size + 1
  /// entries. Exposed for tests.
  size_t block_offset(size_t pair_index) const {
    return offsets_[pair_index];
  }

 private:
  void EnsureLayout(const TimeSeriesGraph& graph);

  /// Checks that `extent` is a block of this layout and returns the
  /// block's first entry.
  double* ExtentBlock(const PrefixExtent& extent);

  std::unique_ptr<double[]> prefix_;  // not zeroed: see the class comment
  size_t size_ = 0;
  std::vector<size_t> offsets_;  // per pair, block start; back() = total
  StorageIdentity topology_identity_;
};

/// The recorded timestamp-only trace of one (motif, delta) enumeration
/// over a set of structural matches. See the file comment for the
/// representation; storage is struct-of-arrays:
///
///   edge_lo_/edge_hi_  per edge, absolute prefix-arena indices of the
///                      slice's flow = prefix[hi] - prefix[lo]
///   edge_child_        per edge, the suffix state the slice leads to
///   state_begin_       CSR offsets; state 0 is the synthetic unit
///                      state (value 1, no edges), and states are
///                      appended post-order so child < parent always
///   roots_             one state per (match, window) with any viable
///                      completion; the replayed count is the sum of
///                      root values
class EnumerationSkeleton {
 public:
  /// Default trace budget (edges). A recorded edge is 12 bytes plus an
  /// 8-byte flow slot during phi sweeps; the default caps the trace at
  /// ~100 MB of replay state, far above the paper-scale workloads,
  /// while bounding the blowup on adversarial inputs.
  static constexpr size_t kDefaultMaxEdges = size_t{1} << 23;

  struct Options {
    size_t max_edges = kDefaultMaxEdges;

    /// Lifecycle control (non-owning, may be null) billed for every
    /// window list recording materializes — in the tier or in the
    /// recording's reader — at site "cache.windows".
    QueryControl* query_control = nullptr;
  };

  /// Records the skeleton of enumerating `motif` at `delta` over
  /// `matches` on `graph`. Window lists come from one WindowListMru
  /// reader for the whole recording, which leases `tier` (optional, a
  /// cross-query SharedWindowCache bound to the same delta) and asks it
  /// on a slot miss. Returns false —
  /// leaving the skeleton unrecorded — when the trace would exceed
  /// options.max_edges or the prefix arena would overflow 32-bit
  /// indices; callers then fall back to ordinary per-graph
  /// enumeration. Recording consults no flow values, so a false return
  /// happens before any flow-dependent work.
  bool Record(const TimeSeriesGraph& graph, const Motif& motif,
              Timestamp delta, const MatchList& matches,
              SharedWindowCache* tier, const Options& options);
  /// The same over owning bindings (flattened once).
  bool Record(const TimeSeriesGraph& graph, const Motif& motif,
              Timestamp delta, const std::vector<MatchBinding>& matches,
              SharedWindowCache* tier, const Options& options);
  bool Record(const TimeSeriesGraph& graph, const Motif& motif,
              Timestamp delta, const std::vector<MatchBinding>& matches,
              SharedWindowCache* tier) {
    return Record(graph, motif, delta, matches, tier, Options());
  }

  /// Records one skeleton per entry of `deltas` (which must be
  /// non-increasing) in a SINGLE pass over `matches` — the delta-grid
  /// recording path of QueryEngine::RunSweep. Two things make this
  /// cheaper than one Record call per delta:
  ///
  ///  * shared per-match work: series resolution, arena offsets, and
  ///    the window scan (ComputeProcessedWindowsMulti walks the match's
  ///    two boundary series once for the whole grid) are paid per
  ///    match, not per (match, delta), and every delta's recursion runs
  ///    while the match's series are cache-hot;
  ///  * cascaded viability: within a match, deltas are visited largest
  ///    first, and a delta that yields no roots (no phi = 0 completion)
  ///    proves the match dead for every remaining smaller delta — so
  ///    the grid's tail skips the bulk of the match list on workloads
  ///    where most structural matches never produce an instance.
  ///
  /// Per-delta trace budgets apply independently: a delta whose trace
  /// would exceed options.max_edges is abandoned (its skeleton reports
  /// recorded() == false; callers fall back for that delta only) and is
  /// excluded from the viability cascade, without disturbing the other
  /// deltas. `skeletons` is resized to deltas.size(), index-aligned.
  /// `control` (optional) adds a cooperative cancellation point per
  /// match scanned (site "sweep.record"). A stop aborts the whole
  /// recording: every skeleton reports recorded() == false — a
  /// half-recorded trace would replay wrong counts, so there is no
  /// partial recording, only a clean fallback.
  static void RecordSweepDescending(
      const TimeSeriesGraph& graph, const Motif& motif,
      const std::vector<Timestamp>& deltas,
      const MatchList& matches, const Options& options,
      std::vector<EnumerationSkeleton>* skeletons,
      QueryControl* control = nullptr);

  /// Checks the trace's layout invariants: the three edge arrays have
  /// equal length; state_begin_ starts at 0, is non-decreasing, and
  /// ends at num_edges(); every edge's child state is below the state
  /// owning the edge (post-order, so state 0 owns no edge); every root
  /// is a state; every edge has edge_lo <= edge_hi; the extents are
  /// sorted by pair with disjoint [begin, last] ranges; and every edge
  /// lies within one extent — edge_hi at most its block's `last`, the
  /// invariant that makes extent fills exact. OK or Internal naming
  /// the first violation. An unrecorded skeleton is trivially
  /// valid. Tests call it after every recording; debug builds CHECK it
  /// after Record and RecordSweepDescending.
  Status Verify() const;

  bool recorded() const { return recorded_; }
  size_t num_edges() const { return edge_lo_.size(); }
  /// Total states including the synthetic unit state 0.
  size_t num_states() const { return state_begin_.size() - 1; }
  size_t num_roots() const { return roots_.size(); }

  /// Identity of the topology the recording is valid for; a replay
  /// arena must report the same identity.
  StorageIdentity topology_identity() const { return topology_identity_; }

  const uint32_t* edge_lo() const { return edge_lo_.data(); }
  const uint32_t* edge_hi() const { return edge_hi_.data(); }
  const uint32_t* edge_child() const { return edge_child_.data(); }
  const uint32_t* state_begin() const { return state_begin_.data(); }
  const uint32_t* roots() const { return roots_.data(); }

  /// The prefix blocks the trace reads, one per touched pair, sorted by
  /// pair: the only arena entries a replay of this skeleton consults
  /// (FlowPrefixArena's extent fills).
  const std::vector<PrefixExtent>& extents() const { return extents_; }

  /// Per recorded match (aligned with the `matches` argument of
  /// Record), whether the match contributed any root — i.e. has at
  /// least one structurally viable completion at this delta with
  /// phi = 0. Because shrinking delta and raising phi only remove
  /// instances, a non-viable match counts zero for EVERY delta' <=
  /// delta and every phi — the delta-monotonicity filter RunSweep uses
  /// to skip dead matches when recording the smaller deltas of a grid.
  const std::vector<uint8_t>& match_viability() const {
    return match_viable_;
  }

 private:
  struct Recorder;

  void Clear();

  std::vector<uint32_t> edge_lo_;
  std::vector<uint32_t> edge_hi_;
  std::vector<uint32_t> edge_child_;
  std::vector<uint32_t> state_begin_{0, 0};  // state 0 = unit, no edges
  std::vector<uint32_t> roots_;
  std::vector<PrefixExtent> extents_;
  std::vector<uint8_t> match_viable_;
  StorageIdentity topology_identity_;
  bool recorded_ = false;
};

/// Replays a recorded skeleton against flow assignments. Owns the DP
/// value buffer (and the edge-flow buffer for phi sweeps), so one
/// replayer per thread; the skeleton itself is immutable and shared.
class SkeletonReplayer {
 public:
  /// `skeleton` must outlive the replayer and be recorded.
  explicit SkeletonReplayer(const EnumerationSkeleton* skeleton);

  /// Instance count of the recorded (motif, delta) enumeration under
  /// `arena`'s flow assignment at threshold `phi` — one fused pass,
  /// byte-identical to enumerating the corresponding graph.
  int64_t Count(const FlowPrefixArena& arena, Flow phi);

  /// Phi-sweep split: evaluate every recorded slice flow once, then
  /// answer any number of thresholds against the cached flows.
  void EvaluateFlows(const FlowPrefixArena& arena);
  int64_t CountWithFlows(Flow phi);

 private:
  const EnumerationSkeleton* skeleton_;
  std::vector<double> flows_;    // per recorded edge, EvaluateFlows only
  std::vector<int64_t> values_;  // per state, DP scratch
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_CORE_SKELETON_H_
