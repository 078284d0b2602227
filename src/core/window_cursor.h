#ifndef FLOWMOTIF_CORE_WINDOW_CURSOR_H_
#define FLOWMOTIF_CORE_WINDOW_CURSOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/match_list.h"
#include "core/motif.h"
#include "core/sliding_window.h"
#include "graph/edge_series.h"
#include "graph/time_series_graph.h"
#include "graph/types.h"

namespace flowmotif {

/// Shared incremental-window machinery of the three per-window
/// evaluation paths — the top-1 DP (core/dp.cc), the counting recursion
/// (core/counter.cc), and the join baseline (core/join_baseline.cc).
///
/// A match's processed windows come out of ComputeProcessedWindows
/// ordered by anchor, so both window bounds are non-decreasing across
/// the sweep. Everything here leans on that monotonicity: cursors only
/// ever advance (galloping, O(log gap) in the distance moved), so a
/// full window sweep pays O(series length) total instead of one binary
/// search per window — or, before PR 3/4, per recursion call.

class QueryControl;

/// Resolves one structural match's per-level series: the motif's
/// label-ordered edges mapped through `binding` via graph.FindSeries.
/// Shared by every per-match evaluation path (enumerator, counter, DP,
/// skeleton recorder) so the binding-to-series contract — and its
/// not-a-match check — cannot drift between them. `series` is resized
/// to the motif's edge count.
void ResolveMatchSeries(const TimeSeriesGraph& graph, const Motif& motif,
                        MatchRef binding,
                        std::vector<const EdgeSeries*>* series);

/// Per-series sliding cursors over one match's window sweep:
/// lo[k] = LowerBound(window.start), hi[k] = UpperBound(window.end) of
/// the current window on the k-th motif edge's series. Invariants: both
/// are non-decreasing across a match's windows (starts and ends are
/// sorted), and lo[k] <= hi[k] for every window.
class WindowCursorSet {
 public:
  /// Binds the cursors to one match's resolved series and rewinds them
  /// to the series fronts. `series` must outlive the next Reset.
  void Reset(const std::vector<const EdgeSeries*>& series) {
    series_ = &series;
    lo_.assign(series.size(), 0);
    hi_.assign(series.size(), 0);
  }

  /// Slides every cursor to `window`. Windows must be visited in
  /// non-decreasing (start, end) order.
  void AdvanceTo(const Window& window) {
    const std::vector<const EdgeSeries*>& series = *series_;
    for (size_t k = 0; k < series.size(); ++k) {
      lo_[k] = series[k]->AdvanceLowerBound(lo_[k], window.start);
      hi_[k] = series[k]->AdvanceUpperBound(hi_[k], window.end);
    }
  }

  size_t lo(size_t k) const { return lo_[k]; }
  size_t hi(size_t k) const { return hi_[k]; }
  const std::vector<size_t>& lo_indices() const { return lo_; }
  const std::vector<size_t>& hi_indices() const { return hi_; }
  size_t num_series() const { return lo_.size(); }

 private:
  const std::vector<const EdgeSeries*>* series_ = nullptr;
  std::vector<size_t> lo_;
  std::vector<size_t> hi_;
};

/// Union timeline t1..t_tau of the current window: a k-way merge of the
/// per-series sorted slices [lo, hi) into a reusable buffer (no
/// push-all + sort + unique). The motif has a handful of edges, so the
/// linear min-scan beats a heap.
class UnionTimeline {
 public:
  void Build(const std::vector<const EdgeSeries*>& series,
             const WindowCursorSet& cursors);

  const std::vector<Timestamp>& times() const { return times_; }
  size_t size() const { return times_.size(); }
  Timestamp operator[](size_t i) const { return times_[i]; }

 private:
  std::vector<Timestamp> times_;
  std::vector<size_t> heads_;  // k-way merge heads
};

/// Flat m x tau per-series timeline offsets, row stride tau:
/// lower(k, i) / upper(k, i) are series k's LowerBound / UpperBound of
/// timeline[i], filled by one monotone two-cursor sweep per row. They
/// turn every flow([tj,ti],k) of Eq. 2 — and the DP traceback's
/// edge-set ranges — into an O(1)
/// FlowInIndexRange(lower(k,j), upper(k,i)) prefix subtraction.
///
/// The sweeps clamp at [lo, hi]: timeline entries lie inside
/// [start, end], so the global bounds can never fall outside the cursor
/// range.
class TimelineOffsets {
 public:
  void Build(const std::vector<const EdgeSeries*>& series,
             const WindowCursorSet& cursors, const UnionTimeline& timeline);

  size_t lower(size_t k, size_t i) const { return lower_[k * tau_ + i]; }
  size_t upper(size_t k, size_t i) const { return upper_[k * tau_ + i]; }
  const size_t* lower_row(size_t k) const { return lower_.data() + k * tau_; }
  const size_t* upper_row(size_t k) const { return upper_.data() + k * tau_; }

 private:
  std::vector<size_t> lower_;
  std::vector<size_t> upper_;
  size_t tau_ = 0;
};

/// Cross-query tier of processed-window lists, keyed on the (first,
/// last) *timestamp-storage identities* of the series pair
/// (EdgeSeries::timestamp_identity()). It sits behind the per-worker
/// WindowListMru readers and is read only on their slot misses: the
/// serving layer keeps one per delta across queries and seals, the
/// significance analyzer one per ensemble for its counting route, and a
/// caller may hand one to a single query (QueryOptions::
/// shared_cache_tier) or a skeleton recording.
///
/// Window lists depend only on timestamps and delta, and the identity
/// is shared by a series and all its flow-permuted views, so an entry
/// serves every graph sharing the timestamp storage. Identities carry
/// an epoch stamp (graph/types.h), so under an appending EpochLog a
/// tier held across seals keeps hitting for series untouched by the
/// seal, misses (never aliases) for resealed dirty series, and stays
/// immune to freed-storage address reuse.
///
/// Storage is a two-generation clock (current + previous). Lookups
/// inside a generation are lock-free: entries are immutable once
/// published, inserted at bucket heads with a CAS, and never moved. A
/// saturated insert *rotates* — previous is dropped from the
/// publication path, current becomes previous, a fresh current takes
/// inserts — so a long-lived tier keeps admitting recent pairs instead
/// of freezing on its first max_entries. Hits in the previous
/// generation are promoted (copied) into the current one: an entry
/// survives rotation iff it was touched during the current
/// generation's lifetime. Published pointers stay valid because
/// generations are shared_ptr-owned and readers access them only
/// through a TierLease that retains every generation it ever served
/// pointers from — a dropped generation is freed when the last leased
/// reader drains, not at rotation.
class SharedWindowCache {
 private:
  struct Node;
  struct Generation;

 public:
  static constexpr size_t kDefaultMaxEntries = 1024;

  /// A tier holding at most `max_entries_per_generation` entries per
  /// generation (so up to 2x that total between rotations). The
  /// trailing bool selects nothing: it is accepted and ignored so that
  /// existing three-argument callers keep compiling until they drop it.
  explicit SharedWindowCache(
      Timestamp delta,
      size_t max_entries_per_generation = kDefaultMaxEntries, bool = false);
  ~SharedWindowCache();
  SharedWindowCache(const SharedWindowCache&) = delete;
  SharedWindowCache& operator=(const SharedWindowCache&) = delete;

  /// A reader's pin on the generations it may receive pointers from.
  /// Movable, not copyable; destroying the lease (after every pointer
  /// obtained through it is dead) is what lets dropped generations free.
  /// One lease is single-reader state: each WindowListMru holds its own.
  class TierLease {
   public:
    TierLease() = default;
    TierLease(TierLease&&) noexcept = default;
    TierLease& operator=(TierLease&&) noexcept = default;
    TierLease(const TierLease&) = delete;
    TierLease& operator=(const TierLease&) = delete;

    bool active() const { return cur_ != nullptr; }

   private:
    friend class SharedWindowCache;
    std::shared_ptr<Generation> cur_;
    std::shared_ptr<Generation> prev_;
    /// Generations this lease handed out pointers from and has since
    /// moved past (rotation refreshes). Kept alive until the lease dies.
    std::vector<std::shared_ptr<Generation>> retained_;
  };

  /// Opens a lease on the current generation pair. Cheap: two
  /// shared_ptr copies under the rotation lock.
  TierLease AcquireTierLease();

  /// The processed-window list for (first, last) through `lease`: hit
  /// in the leased current generation, else hit-and-promote from the
  /// leased previous one, else compute and insert — rotating
  /// generations (and refreshing the lease) when the current generation
  /// is saturated. A computed list is billed to `control` (may be null)
  /// at site "cache.windows"; the tier itself carries no control, since
  /// it serves many queries at once. Returns nullptr only when
  /// max_entries() == 0. The pointer stays valid for the lease's
  /// lifetime. Two series with equal timestamp_identity() (a series and
  /// its flow-permuted views) share one entry.
  const std::vector<Window>* LeasedGet(TierLease* lease,
                                       const EdgeSeries& first,
                                       const EdgeSeries& last,
                                       QueryControl* control = nullptr);

  /// Rebuilds the generation pair keeping only entries whose two
  /// storage identities satisfy `live`. The serving layer calls this
  /// after a seal with "is this identity reachable from the live
  /// snapshot", so entries keyed on resealed (freed) storage can never
  /// be served to a post-seal query and tier memory does not grow
  /// monotonically across seals. Existing leases keep their old
  /// generations (and pointer validity) until they drain; entries
  /// inserted concurrently with the sweep may be lost (recomputed on
  /// next request), never corrupted.
  void SweepGenerations(const std::function<bool(const StorageIdentity&)>& live);

  Timestamp delta() const { return delta_; }
  size_t max_entries() const { return max_entries_; }

  /// Number of generation rotations saturated inserts have forced.
  int64_t num_rotations() const {
    return rotations_.load(std::memory_order_relaxed);
  }

  /// Number of reserved entry slots in the current and previous
  /// generations (== published entries once all in-flight inserts
  /// finish); at most 2 * max_entries().
  size_t size() const;

  /// Lookup / hit counters (relaxed; exact once concurrent readers
  /// drained). Readers consult the tier only on a slot miss, so these
  /// count reader misses, not every window-list request.
  int64_t num_lookups() const {
    return lookups_.load(std::memory_order_relaxed);
  }
  int64_t num_hits() const { return hits_.load(std::memory_order_relaxed); }

 private:
  /// Finds the published entry for the pair in `gen`, or null.
  static Node* FindIn(const Generation& gen, const StorageIdentity& first_id,
                      const StorageIdentity& last_id);
  /// Reserves one entry slot in `gen`; false when saturated.
  static bool TryReserve(Generation* gen);
  /// Publishes an already-reserved `node` into `gen`, resolving racing
  /// same-key inserts (loser is deleted, winner's list returned).
  static const std::vector<Window>* InsertReserved(Generation* gen,
                                                   Node* node);
  /// Rotates if `lease` saw the newest generation saturated, then
  /// refreshes the lease to the cache's current generation pair
  /// (retaining the generations the lease moves past).
  void Rotate(TierLease* lease);

  const Timestamp delta_;
  const size_t max_entries_;

  /// The rotation lock guards only the pair of generation pointers —
  /// lookups and inserts inside a generation stay lock-free.
  mutable std::mutex gen_mu_;
  std::shared_ptr<Generation> cur_;
  std::shared_ptr<Generation> prev_;
  std::atomic<int64_t> rotations_{0};

  std::atomic<int64_t> lookups_{0};
  std::atomic<int64_t> hits_{0};
};

/// The one source of processed-window lists for every two-phase
/// evaluation path: enumerator, counter, DP, skeleton recording, the
/// engine and the serving layer all read ComputeProcessedWindows output
/// through a reader (the join baseline, whose frontier interleaves
/// pairs, keeps a run-local map instead). A reader is per-worker
/// state — one engine batch, one DP Scratch, one recording, one
/// significance counting task — and is not thread-safe.
///
/// It keeps the last list it served in a one-entry slot. Matches arrive
/// in runs sharing a (first, last) pair — the P1 DFS varies interior
/// vertices innermost — so consecutive matches of a run hit the slot.
/// The slot is keyed on the series' timestamp identities, so a run that
/// crosses from one flow-permuted view to the next keeps its hit. On a
/// slot miss the reader asks the optional cross-query tier through a
/// TierLease it holds for its whole lifetime (so every list the tier
/// served stays valid while the reader lives); without a tier it
/// computes the list into the slot and bills it to `control` at site
/// "cache.windows", so WorkBudget window/memory caps hold on every path.
class WindowListMru {
 public:
  /// `tier` (may be null) must be bound to `delta` and outlive the
  /// reader; `control` (may be null) must outlive it too.
  explicit WindowListMru(Timestamp delta, SharedWindowCache* tier = nullptr,
                         QueryControl* control = nullptr);

  /// The processed-window list for (first, last). The reference is
  /// valid until the next call.
  const std::vector<Window>& Get(const EdgeSeries& first,
                                 const EdgeSeries& last);

  Timestamp delta() const { return delta_; }
  const SharedWindowCache* tier() const { return tier_; }
  const QueryControl* control() const { return control_; }

 private:
  Timestamp delta_;
  SharedWindowCache* tier_;
  QueryControl* control_;
  SharedWindowCache::TierLease lease_;
  StorageIdentity first_id_;
  StorageIdentity last_id_;
  /// The slot's list when the tier served it, else null and the list
  /// lives in windows_.
  const std::vector<Window>* from_tier_ = nullptr;
  std::vector<Window> windows_;
};

/// Bills one freshly materialized window list against `control`'s
/// WorkBudget at site "cache.windows" — the single charging point every
/// materialization path shares (a tier publish, a WindowListMru
/// compute, a sweep recording's multi-delta scan), so
/// max_window_elements / max_memory_bytes hold on every path.
/// `container_bytes` adds fixed per-list overhead (e.g. a tier node).
/// Null control = no-op.
void ChargeComputedWindows(QueryControl* control, size_t num_windows,
                           size_t container_bytes);

}  // namespace flowmotif

#endif  // FLOWMOTIF_CORE_WINDOW_CURSOR_H_
