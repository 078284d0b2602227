#ifndef FLOWMOTIF_GRAPH_EDGE_SERIES_H_
#define FLOWMOTIF_GRAPH_EDGE_SERIES_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "graph/types.h"
#include "util/status.h"

namespace flowmotif {

/// The interaction time series R(u, v) on one edge of the time-series
/// graph: all (t, f) elements from u to v, ordered by time.
///
/// Storage is split: the timestamp array is immutable shared storage
/// (shared_ptr), while the flow values and their prefix sums are owned
/// per series. A flow-permuted view (WithFlows) therefore shares the
/// timestamps of its source series by identity — the significance
/// module's null-model graphs (Sec. 6.3) keep structure and timestamps
/// fixed, so every timestamp-derived artifact (window lists, union
/// timelines, structural matches) is bit-identical across the whole
/// permutation ensemble and can be cached under timestamp_identity().
///
/// Flow prefix sums are maintained so that the aggregated flow of any
/// contiguous index range — the quantity `flow([tj, ti], k)` of Eq. 2 and
/// the phi-checks of Algorithm 1 — costs O(1) after an O(log n) binary
/// search by time.
class EdgeSeries {
 public:
  /// An empty series sharing the static empty timestamp storage.
  EdgeSeries();

  /// Builds from interactions; sorts them by (time, flow). The series
  /// owns a fresh timestamp array (a new identity). `epoch` stamps the
  /// identity with the creation epoch of the storage (0 for static
  /// graphs). InvalidArgument, naming the first offender, when a flow
  /// is non-positive or not finite.
  static StatusOr<EdgeSeries> Create(std::vector<Interaction> interactions,
                                     EpochId epoch = 0);

  /// A view over this series' timestamp storage (shared by identity, not
  /// copied) carrying `new_flows` in element order. The significance
  /// module's flow permutation builds its randomized graphs from these
  /// views, so N permutations store N flow arrays but one timestamp
  /// array. `new_flows.size()` must equal size(); flows must be > 0.
  EdgeSeries WithFlows(std::vector<Flow> new_flows) const;

  /// Copy with freshly owned timestamp storage — a distinct
  /// timestamp_identity(). The retained pre-refactor copying semantics,
  /// used by TimeSeriesGraph::DeepCopy.
  EdgeSeries DeepCopy() const;

  /// A new series over fresh storage holding this series' interactions
  /// plus `tail`, sorted — byte-identical to rebuilding the series from
  /// the union of interactions, so an epoch-sealed streamed graph is
  /// indistinguishable from a statically built one. The result's
  /// identity carries `epoch`; this series (and any cache entries keyed
  /// on its identity) is untouched.
  EdgeSeries WithAppended(std::vector<Interaction> tail, EpochId epoch) const;

  /// Stable identity of the (immutable, shared) timestamp storage: equal
  /// for this series and every WithFlows view derived from it, distinct
  /// for series built from interactions. SharedWindowCache keys on this,
  /// which is what lets one window cache serve a whole flow-permutation
  /// ensemble. The epoch stamp keeps the identity unambiguous across an
  /// appending stream even if freed storage addresses are reused (see
  /// StorageIdentity in graph/types.h).
  StorageIdentity timestamp_identity() const {
    return StorageIdentity{times_.get(), storage_epoch_};
  }

  size_t size() const { return num_elements_; }
  bool empty() const { return num_elements_ == 0; }

  Timestamp time(size_t i) const { return times_data_[i]; }
  Flow flow(size_t i) const { return flows_[i]; }
  Interaction at(size_t i) const { return {times_data_[i], flows_[i]}; }

  const std::vector<Timestamp>& times() const { return *times_; }
  const std::vector<Flow>& flows() const { return flows_; }

  /// The flow prefix sums: size() + 1 entries with
  /// prefix_sums()[i] = sum of flows()[0..i-1]. Exposed so the replay
  /// arena (core/skeleton.h) can lay the ensemble's prefix arrays out
  /// flat without re-deriving them.
  const std::vector<double>& prefix_sums() const { return prefix_; }

  /// Sum of flows over the inclusive index range [i, j]; 0 if i > j.
  Flow FlowSum(size_t i, size_t j) const {
    if (i > j || j >= size()) return 0.0;
    return prefix_[j + 1] - prefix_[i];
  }

  /// Sum of flows over the half-open index range [first, limit); 0 when
  /// the range is empty. With first = LowerBound(lo) and
  /// limit = UpperBound(hi) this equals FlowInClosed(lo, hi) bit for bit
  /// — it is the O(1) `flow([tj,ti],k)` of Eq. 2 once the DP's window
  /// cursor has the bounds as indices. `limit` must be <= size().
  Flow FlowInIndexRange(size_t first, size_t limit) const {
    return first < limit ? prefix_[limit] - prefix_[first] : 0.0;
  }

  /// First index i >= from with time(i) >= t (== size() if none). A
  /// galloping advance: O(log gap) in the distance moved, so the
  /// sliding-window cursors pay O(1)-ish per window when consecutive
  /// windows overlap (the common case) yet never worse than a binary
  /// search when the first window of a match sits deep into the series.
  size_t AdvanceLowerBound(size_t from, Timestamp t) const;

  /// First index i >= from with time(i) > t (== size() if none).
  size_t AdvanceUpperBound(size_t from, Timestamp t) const;

  /// Total flow of the whole series.
  Flow TotalFlow() const { return prefix_.empty() ? 0.0 : prefix_.back(); }

  /// Index of the first element with time >= t (== size() if none).
  size_t LowerBound(Timestamp t) const;

  /// Index of the first element with time > t (== size() if none).
  size_t UpperBound(Timestamp t) const;

  /// Sum of flows of elements with lo < time <= hi (half-open window used
  /// by the enumerator's recursion) — 0 when the range is empty.
  Flow FlowInOpenClosed(Timestamp lo, Timestamp hi) const;

  /// Sum of flows of elements with lo <= time <= hi (closed window used by
  /// the DP module's Eq. 2).
  Flow FlowInClosed(Timestamp lo, Timestamp hi) const;

  /// True iff some element has lo < time <= hi.
  bool HasElementInOpenClosed(Timestamp lo, Timestamp hi) const;

  /// Replaces the flow values in place and rebuilds the prefix sums.
  /// Only the owned flow storage is touched — the shared timestamps (and
  /// any views over them) are unaffected. InvalidArgument, leaving the
  /// series unchanged, when `new_flows.size()` differs from size() or a
  /// flow is non-positive or not finite.
  Status ReplaceFlows(const std::vector<Flow>& new_flows);

 private:
  // Build and ExtendWith construct series from interactions their
  // inputs already validated (InteractionGraph::AddEdge,
  // EpochLog::Append); every other caller goes through Create.
  friend class TimeSeriesGraph;

  /// The unchecked constructor behind Create: `interactions` must carry
  /// positive finite flows (a CHECK guards the invariant).
  explicit EdgeSeries(std::vector<Interaction> interactions,
                      EpochId epoch = 0);

  void RebuildPrefix();

  /// Re-derives the cached raw view (times_data_, num_elements_) from
  /// times_. Call after every assignment to times_.
  void SyncTimesView() {
    times_data_ = times_->data();
    num_elements_ = times_->size();
  }

  // Immutable after construction; shared with WithFlows views.
  std::shared_ptr<const std::vector<Timestamp>> times_;
  // Epoch at which times_ was created; part of timestamp_identity().
  EpochId storage_epoch_ = 0;
  // Cached raw view of *times_ so the hot paths (time(), the galloping
  // cursors, the binary searches) pay no shared_ptr double indirection —
  // the storage split must not tax the recursion-bound workloads that
  // never touch a permutation view. Always kept in sync with times_.
  const Timestamp* times_data_ = nullptr;
  size_t num_elements_ = 0;
  // Owned per series/view.
  std::vector<Flow> flows_;
  std::vector<double> prefix_;  // prefix_[i] = sum of flows_[0..i-1]
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_GRAPH_EDGE_SERIES_H_
