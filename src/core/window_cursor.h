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

/// True iff some motif node is absent from the endpoints of the first
/// and last motif edges. Only then can two distinct bindings share the
/// same (first, last) series pair — otherwise the two series pointers
/// pin every bound vertex and a window cache keyed on the pair could
/// never hit within one graph.
bool MotifHasInteriorNode(const Motif& motif);

class QueryControl;
class SharedWindowCache;

/// True when window memoization can pay off for this (cache, motif)
/// combination: the motif has an interior node (so a (first, last) pair
/// repeats across matches of one graph), or the cache is declared
/// cross-graph (the significance ensemble re-presents every pair once
/// per flow-permuted view, so even a pair that is unique within one
/// graph is requested N+1 times under the same timestamp-identity key),
/// or the cache falls through to a cross-query tier (a serving layer
/// re-presents every pair once per repeated query, which makes even
/// within-one-graph-unique pairs worth publishing).
bool ShouldUseWindowCache(const SharedWindowCache* cache, const Motif& motif);

/// Resolves the cache a per-window evaluation path should read through
/// — the one policy shared by the enumerator, counter, and DP searcher:
/// the injected cache when ShouldUseWindowCache passes (its delta must
/// equal `delta`); else a privately owned cache, allocated into
/// `*owned`, iff the motif has an interior node; else null (windows
/// are computed per match). `owned` must outlive the returned pointer.
SharedWindowCache* ResolveWindowCache(
    SharedWindowCache* injected, const Motif& motif, Timestamp delta,
    std::unique_ptr<SharedWindowCache>* owned);

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

/// One-entry most-recently-used window-list fallback for when no
/// SharedWindowCache serves a pair (memoization gated off, cache
/// saturated, or the pair declined). Matches arrive in runs sharing a
/// (first, last) pair — the P1 DFS varies interior vertices innermost —
/// so remembering the last computed list keeps those run-locality hits
/// even without (or beyond) the shared cache. Keyed on the series'
/// timestamp identities (like the shared cache), so a run that crosses
/// from one flow-permuted view to the next keeps its hit. Not
/// thread-safe: one per worker/scratch.
class WindowListMru {
 public:
  /// Returns the processed-window list for (first, last): from `cache`
  /// when available, else from this MRU slot (recomputing only when the
  /// pair changed). The reference is valid until the next call.
  /// `charge` (may be null) is billed for every window list this call
  /// materializes — whether the cache builds it or the MRU recomputes
  /// it privately — at site "cache.windows", so WorkBudget window/memory
  /// caps hold uniformly, not only for cache-eligible motifs.
  const std::vector<Window>& GetOrCompute(SharedWindowCache* cache,
                                          const EdgeSeries& first,
                                          const EdgeSeries& last,
                                          Timestamp delta,
                                          QueryControl* charge = nullptr);

 private:
  StorageIdentity first_id_;
  StorageIdentity last_id_;
  std::vector<Window> windows_;
};

/// Per-query shared cache of processed-window lists, keyed on the
/// (first, last) *timestamp-storage identities* of the series pair
/// (EdgeSeries::timestamp_identity()) — built once per pair and served
/// to every evaluation path (DP, counter, enumerator, join) and every
/// worker thread of the query.
///
/// Window lists depend only on timestamps and delta, and the identity is
/// shared by a series and all its flow-permuted views, so one cache is
/// warm across a whole significance ensemble: lists computed on the real
/// graph are hit by every randomized view. Construct with
/// `cross_graph = true` to record that intent — ShouldUseWindowCache
/// then enables memoization even for motifs whose pairs never repeat
/// within one graph.
///
/// Reads are lock-free: entries are immutable once published, inserted
/// at bucket heads with a CAS, and never moved or freed until the cache
/// is destroyed, so a reader's pointer stays valid for the cache's
/// lifetime and lookups are plain acquire loads. The size cap saturates
/// instead of evicting — eviction would invalidate pointers concurrent
/// readers still hold; past the cap, Get returns nullptr and callers
/// compute into their own buffer (correctness never depends on a hit).
///
/// Keying on storage identities means a cache must never outlive the
/// timestamp storage it indexes, and must never be shared across graphs
/// built independently (their identities are distinct, so entries would
/// just never hit) — create one cache per (graph family, delta) query,
/// as QueryEngine and SignificanceAnalyzer do. Identities carry an
/// epoch stamp (graph/types.h), so under an appending EpochLog a cache
/// held across seals keeps hitting for series untouched by the seal,
/// misses (never aliases) for resealed dirty series, and stays immune
/// to freed-storage address reuse.
///
/// Generational mode (MakeGenerational) is the long-lived-tier variant:
/// instead of one saturating entry pool it keeps a two-generation clock
/// (current + previous). A saturated insert *rotates* — previous is
/// dropped from the publication path, current becomes previous, a fresh
/// current takes inserts — so a tier that outlives any single workload
/// keeps admitting recent pairs instead of freezing on its first
/// max_entries. Hits in the previous generation are promoted (copied)
/// into the current one, which is what makes it a clock: an entry
/// survives rotation iff it was touched during the current generation's
/// lifetime. Published pointers stay valid because generations are
/// shared_ptr-owned and readers access them only through a TierLease
/// that retains every generation it ever served pointers from — a
/// dropped generation is freed when the last leased reader drains, not
/// at rotation. Plain Get() is for non-generational caches only;
/// generational readers go through AcquireTierLease + LeasedGet (the
/// per-query cache does this automatically in set_fallback_tier / its
/// tier fallthrough).
class SharedWindowCache {
 private:
  struct Node;
  struct Generation;

 public:
  static constexpr size_t kDefaultMaxEntries = 1024;

  explicit SharedWindowCache(Timestamp delta,
                             size_t max_entries = kDefaultMaxEntries,
                             bool cross_graph = false);
  ~SharedWindowCache();
  SharedWindowCache(const SharedWindowCache&) = delete;
  SharedWindowCache& operator=(const SharedWindowCache&) = delete;

  /// A generational-replacement cache holding at most
  /// `max_entries_per_generation` entries per generation (so up to 2x
  /// that total between rotations). Readers must use AcquireTierLease +
  /// LeasedGet; plain Get() aborts. Intended for the serving layer's
  /// cross-query tier — per-query caches stay non-generational (their
  /// lifetime is one query; saturation is the cheaper discipline).
  static std::unique_ptr<SharedWindowCache> MakeGenerational(
      Timestamp delta,
      size_t max_entries_per_generation = kDefaultMaxEntries);

  /// A reader's pin on the generations it may receive pointers from.
  /// Movable, not copyable; destroying the lease (after every pointer
  /// obtained through it is dead) is what lets dropped generations free.
  /// One lease is single-reader state — guard it externally if shared
  /// across threads (the per-query cache does).
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

  /// Returns the processed-window list for (first, last), computing and
  /// publishing it on first request. Returns nullptr when the cache is
  /// saturated and the pair is absent. The returned pointer stays valid
  /// until the cache is destroyed. Two series with equal
  /// timestamp_identity() (a series and its flow-permuted views) share
  /// one entry.
  ///
  /// `charge` overrides the attached query control for budget
  /// accounting on this call (a cross-query tier serves many controls
  /// at once, so the per-query control must ride the call, not the
  /// cache); null falls back to set_query_control's pointer.
  ///
  /// Non-generational caches only — generational readers hold a
  /// TierLease and call LeasedGet (checked).
  const std::vector<Window>* Get(const EdgeSeries& first,
                                 const EdgeSeries& last,
                                 QueryControl* charge = nullptr);

  /// Opens a lease on the current generation pair. Generational caches
  /// only (checked). Cheap: two shared_ptr copies under the rotation
  /// lock.
  TierLease AcquireTierLease();

  /// Generational-mode Get through `lease`: hit in the leased current
  /// generation, else hit-and-promote from the leased previous one,
  /// else compute and insert — rotating generations (and refreshing the
  /// lease) when the current generation is saturated, so a long-lived
  /// tier never stops admitting. Returns nullptr only when
  /// max_entries() == 0. Pointer validity matches the lease's lifetime,
  /// not the cache's generations.
  const std::vector<Window>* LeasedGet(TierLease* lease,
                                       const EdgeSeries& first,
                                       const EdgeSeries& last,
                                       QueryControl* charge = nullptr);

  /// Rebuilds the generation pair keeping only entries whose two
  /// storage identities satisfy `live` (generational caches only,
  /// checked). The serving layer calls this after a seal with "is this
  /// identity reachable from the live snapshot", so entries keyed on
  /// resealed (freed) storage can never be served to a post-seal query
  /// and tier memory does not grow monotonically across seals.
  /// Existing leases keep their old generations (and pointer validity)
  /// until they drain; entries inserted concurrently with the sweep may
  /// be lost (recomputed on next request), never corrupted.
  void SweepGenerations(const std::function<bool(const StorageIdentity&)>& live);

  Timestamp delta() const { return delta_; }
  size_t max_entries() const { return max_entries_; }
  bool generational() const { return generational_; }

  /// Number of generation rotations saturated inserts have forced.
  int64_t num_rotations() const {
    return rotations_.load(std::memory_order_relaxed);
  }

  /// Attaches the owning query's lifecycle control: every window list
  /// this cache computes is charged against the control's WorkBudget
  /// (max_window_elements / max_memory_bytes, site "cache.windows").
  /// Call before handing the cache to workers — the pointer is read
  /// unsynchronized on the compute path. The control must outlive the
  /// queries run through this cache; pass nullptr to detach.
  void set_query_control(QueryControl* control) { control_ = control; }

  /// Attaches a second-level cross-query cache this one falls through
  /// to on a miss (serve/QueryService's per-delta tier). The tier must
  /// share this cache's delta, outlive it, and never carry its own
  /// query control — budget charges ride the Get call instead. Lists
  /// the tier serves (or publishes on our behalf) are byte-identical to
  /// privately computed ones: both come out of ComputeProcessedWindows
  /// on the same timestamp storage, and tier entries are insert-only
  /// and identity-keyed exactly like ours. Call before handing the
  /// cache to workers. A generational tier is read through a lease this
  /// call acquires, so every pointer the tier serves this query stays
  /// valid until this (per-query) cache is destroyed even if the tier
  /// rotates or sweeps underneath.
  void set_fallback_tier(SharedWindowCache* tier);
  bool has_fallback_tier() const { return tier_ != nullptr; }

  /// True when this cache is intended to serve several graphs sharing
  /// timestamp storage (a flow-permutation ensemble).
  bool cross_graph() const { return cross_graph_; }

  /// Number of reserved entry slots (== published entries once all
  /// in-flight inserts finish). Never exceeds max_entries() for a
  /// non-generational cache, 2 * max_entries() for a generational one
  /// (current + previous generation).
  size_t size() const;

  /// Lookup / hit counters (relaxed; exact once concurrent Gets
  /// drained). A fallthrough that the tier answers counts as a miss
  /// here and a hit there, so a serving layer reads its tier's rate.
  int64_t num_lookups() const {
    return lookups_.load(std::memory_order_relaxed);
  }
  int64_t num_hits() const { return hits_.load(std::memory_order_relaxed); }

 private:
  SharedWindowCache(Timestamp delta, size_t max_entries, bool cross_graph,
                    bool generational);

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
  const bool cross_graph_;
  const bool generational_;
  QueryControl* control_ = nullptr;  // budget charging; may be null
  SharedWindowCache* tier_ = nullptr;  // cross-query fallthrough; may be null

  /// Non-generational storage: one fixed saturating generation, alive
  /// for the cache's lifetime (what keeps plain Get's pointers valid).
  std::unique_ptr<Generation> base_;

  /// Generational storage: the rotation lock guards only the pair of
  /// generation pointers — lookups and inserts inside a generation stay
  /// lock-free exactly as in the non-generational case.
  mutable std::mutex gen_mu_;
  std::shared_ptr<Generation> cur_;
  std::shared_ptr<Generation> prev_;
  std::atomic<int64_t> rotations_{0};

  /// This cache's lease on its own fallback tier (generational tiers
  /// only). Guarded: a solo multithreaded run shares one per-query
  /// cache across workers; the serving layer runs queries
  /// single-threaded so the lock is uncontended there.
  std::mutex tier_lease_mu_;
  TierLease tier_lease_;

  std::atomic<int64_t> lookups_{0};
  std::atomic<int64_t> hits_{0};
};

/// Bills one freshly materialized window list against `control`'s
/// WorkBudget at site "cache.windows" — the single charging point every
/// materialization path shares (SharedWindowCache publish, WindowListMru
/// private recompute, the enumerator's per-match compute), so
/// max_window_elements / max_memory_bytes hold regardless of cache
/// eligibility. `container_bytes` adds fixed per-list overhead (e.g. a
/// cache node). Null control = no-op.
void ChargeComputedWindows(QueryControl* control, size_t num_windows,
                           size_t container_bytes);

}  // namespace flowmotif

#endif  // FLOWMOTIF_CORE_WINDOW_CURSOR_H_
