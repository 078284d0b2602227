#ifndef FLOWMOTIF_SERVE_QUERY_SERVICE_H_
#define FLOWMOTIF_SERVE_QUERY_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/motif.h"
#include "core/window_cursor.h"
#include "engine/query_engine.h"
#include "engine/query_options.h"
#include "graph/epoch_log.h"
#include "graph/time_series_graph.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace flowmotif {

/// serve/: the multi-query serving layer (DESIGN.md Sec. 11). One
/// QueryService fronts one EpochLog and runs many concurrent queries
/// through QueryEngine against its latest sealed snapshot, adding what
/// a single synchronous Run call cannot provide:
///
///  * live data — Append buffers edges and SealEpoch atomically swaps
///    the served snapshot; every query runs against the snapshot that
///    was live when it was submitted and keeps it alive via shared_ptr,
///    so a seal never invalidates an in-flight (or queued) run;
///  * a cross-query window-cache tier — one long-lived generational
///    SharedWindowCache per delta that every engine worker's
///    window-list reader consults on a slot miss. Its
///    StorageIdentity{storage, epoch} keys make
///    entries for series untouched by a seal stay warm across epochs,
///    while a post-seal sweep drops entries unreachable from the live
///    snapshot (stale lists are never served, memory does not grow
///    monotonically);
///  * admission control and tenant-fair scheduling — a bounded queue in
///    front of a concurrency cap, rejecting overload with a kRejected
///    Termination instead of blocking, skipping over-cap tenants, and
///    resolving queued requests whose deadline expired before admission
///    with kDeadlineExceeded instead of burning a run slot on them;
///  * deduplication — identical submissions coalesce onto one in-flight
///    engine run, and a completed-result cache (keyed like the dedup
///    table, qualified by epoch, invalidated at every real seal) makes
///    repeats *after* completion free as well.
///
/// Results are byte-identical to solo QueryEngine runs on the same
/// snapshot: the tier only changes where a window list is *found*,
/// never its contents, and the engine's canonical-order folds already
/// make every mode deterministic at any thread count
/// (tests/serving_test.cc and tests/serving_epoch_test.cc lock this in
/// under TSan).

/// Service-wide configuration. Every 0 selects the documented default.
struct ServiceConfig {
  /// Worker threads executing queries. 0 = one per hardware thread.
  /// With 1 worker the pool degenerates to inline execution: Submit
  /// runs the query synchronously on the calling thread (still
  /// correct, used by deterministic tests).
  int num_workers = 0;

  /// Queries running at once. 0 = num_workers. Each served query runs
  /// with num_threads = 1 — the service parallelizes across queries,
  /// not within them, so worker count bounds total parallelism.
  int max_concurrent = 0;

  /// Bounded admission queue depth behind the concurrency cap. A
  /// Submit that finds the queue full fails fast: its result carries
  /// Termination kRejected at site "serve.admit" instead of blocking
  /// the caller.
  int max_queue_depth = 64;

  /// Per-tenant cap on concurrently *running* queries (0 = unlimited).
  /// Queued requests of an at-cap tenant are skipped — not dequeued —
  /// by the admission scan, so another tenant's later submission can
  /// start first (tenant fairness) while FIFO order is preserved
  /// within each tenant.
  int per_tenant_max_running = 0;

  /// Default lifecycle bounds stamped onto requests that carry none.
  /// The deadline is anchored at Submit time, so it covers queue wait:
  /// a request that queues past it resolves at "serve.admit" without
  /// occupying a worker. 0 / inactive = no default. Dedup and
  /// result-cache eligibility are decided on the *caller-supplied*
  /// options, before these defaults are stamped — a shared run under
  /// identical service defaults takes the earliest leader's anchor.
  double default_deadline_seconds = 0.0;
  WorkBudget default_budget;

  /// Cross-query window-cache tier (one SharedWindowCache per delta,
  /// created lazily, identity-keyed like every cache). Generational:
  /// saturated inserts rotate generations instead of freezing the tier
  /// on its first tier_max_entries pairs forever — the right discipline
  /// for a long-lived service whose working set drifts across seals.
  /// tier_max_entries is per generation (so up to 2x resident between
  /// rotations).
  bool enable_cache_tier = true;
  size_t tier_max_entries = 8 * SharedWindowCache::kDefaultMaxEntries;

  /// In-flight dedup of identical submissions. Only requests whose
  /// *callers* supplied no cancel token, deadline, or budget are
  /// eligible — per-request lifecycle state must not be shared
  /// (service defaults are fine: they are identical across the
  /// coalesced set by construction).
  bool enable_dedup = true;

  /// Completed-result cache, keyed like the dedup table plus the epoch
  /// and cleared at every real seal: a repeat of a completed query on
  /// an unchanged snapshot resolves immediately with the shared
  /// immutable result, no engine run. Same eligibility as dedup.
  bool enable_result_cache = true;
  size_t result_cache_max_entries = 256;
};

/// One query submission.
struct ServeRequest {
  Motif motif;
  QueryOptions options;

  /// Admission-control identity; empty = the shared anonymous tenant.
  std::string tenant{};

  /// Test hook: runs on the worker immediately before the engine run
  /// (after queue wait). A coalesced, result-cached, or
  /// expired-in-queue submission's hook never runs — the submission
  /// never executes.
  std::function<void()> on_start{};
};

/// What a Submit future resolves to.
struct ServedResult {
  /// The query result; shared because coalesced / result-cached
  /// submissions alias one run's output. Never null.
  std::shared_ptr<const QueryResult> result;

  /// The request never ran: admission queue full (result->termination
  /// is kRejected at "serve.admit") or a fault injected at admission.
  bool rejected = false;

  /// This submission attached to an identical in-flight run instead of
  /// executing (result is the leader's).
  bool coalesced = false;

  /// This submission was answered by the completed-result cache
  /// (result is the original run's; no engine run happened).
  bool from_result_cache = false;

  /// Epoch of the snapshot this request was served against (the one
  /// live at Submit).
  EpochId epoch = 0;

  /// Order in which the owning engine run *started* (service-wide,
  /// from 0); -1 when rejected or expired in queue. Followers and
  /// result-cache hits report their leader's / producer's sequence.
  /// The fairness tests key on this.
  int64_t admission_sequence = -1;

  double queue_seconds = 0.0;  // Submit to engine-run start
  double total_seconds = 0.0;  // Submit to completion
};

/// Aggregate service counters (monotone; read at any time).
struct ServiceStats {
  int64_t submitted = 0;
  int64_t completed = 0;  // engine runs finished (followers not counted)
  int64_t rejected = 0;
  int64_t coalesced = 0;
  /// Queued requests resolved kDeadlineExceeded at admission, without
  /// ever occupying a worker.
  int64_t expired_in_queue = 0;
  /// Submissions answered by the completed-result cache.
  int64_t result_cache_hits = 0;
  /// Real seals published (empty-tail no-op seals not counted).
  int64_t seals = 0;
  int64_t peak_running = 0;
  int64_t peak_queue_depth = 0;
  /// Cross-query tier totals over all deltas. Engine workers read the
  /// tier directly, but only on a miss of their reader's one-entry
  /// slot, so these count reader misses (a miss the tier answers is one
  /// lookup + one hit), not every window-list request.
  int64_t tier_lookups = 0;
  int64_t tier_hits = 0;
  /// Generation rotations across all per-delta tiers.
  int64_t tier_rotations = 0;
};

/// The serving facade. Thread-safe: Submit / Stats / Snapshot may be
/// called from any thread; Append / SealEpoch are single-writer (the
/// EpochLog contract) but safe against concurrent Submits. Destruction
/// drains — it blocks until every admitted request (running or queued)
/// has completed.
class QueryService {
 public:
  /// Serves `graph` as the epoch-0 snapshot of a fresh log.
  explicit QueryService(TimeSeriesGraph graph,
                        ServiceConfig config = ServiceConfig());
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Submits one query against the currently live snapshot. Never
  /// blocks on the queue: overload resolves the future immediately
  /// with kRejected. The future is resolved by a worker (or inline
  /// with 1 worker); futures from coalesced submissions resolve when
  /// their leader's run completes, result-cache hits resolve
  /// immediately.
  std::future<ServedResult> Submit(ServeRequest request);

  /// Buffers one edge in the log's append tail. Not visible to queries
  /// until the next SealEpoch. Monotone-time checked (EpochLog
  /// contract); a rejected edge changes nothing.
  Status Append(VertexId src, VertexId dst, Timestamp t, Flow f);
  Status Append(const InteractionGraph::Edge& edge) {
    return Append(edge.src, edge.dst, edge.t, edge.f);
  }

  /// Folds the append tail into a new snapshot and atomically swaps
  /// the served graph: submissions after this call run against the new
  /// epoch; in-flight and queued requests keep their submit-time
  /// snapshot (alive via shared_ptr — drain semantics unchanged). A
  /// real seal clears the completed-result cache and sweeps tier
  /// entries whose storage identity is no longer reachable from the
  /// live snapshot; an empty-tail seal is a no-op that invalidates
  /// nothing.
  EpochLog::SealInfo SealEpoch();

  /// The currently served snapshot; safe to hold across later seals.
  std::shared_ptr<const TimeSeriesGraph> Snapshot() const;

  /// Epoch id of the currently served snapshot.
  EpochId epoch() const;

  ServiceStats Stats() const;

  const ServiceConfig& config() const { return config_; }

 private:
  struct Pending;
  struct Inflight;
  struct CachedResult;

  /// A queued request found dead at admission, plus the followers that
  /// coalesced onto it; resolved outside the lock.
  struct ExpiredEntry;

  /// The cross-query tier for `delta`, created on first use. Requires
  /// mu_ held.
  SharedWindowCache* TierForDeltaLocked(Timestamp delta);

  /// Dedup/result-cache key for an eligible request: the epoch it will
  /// run against, the motif's structural encoding, and every
  /// result-affecting option. Execution knobs (num_threads,
  /// batch_size, skeleton_replay) are excluded — results are
  /// byte-identical across them by engine contract. Qualifying by
  /// epoch means a post-seal submission can never coalesce onto (or be
  /// answered by) a pre-seal run.
  static std::string DedupKey(const Motif& motif, const QueryOptions& options,
                              EpochId epoch);

  /// Runs one admitted request on the calling (worker) thread, then
  /// re-scans the queue for newly admissible work.
  void RunOne(std::shared_ptr<Pending> pending, int64_t sequence);

  /// Starts every queue entry the caps admit and extracts every queued
  /// entry whose deadline expired (resolved by the caller outside mu_
  /// — they never occupy a worker). Requires mu_ held; `started` pairs
  /// must be handed to the pool *after* releasing mu_ (a 1-worker pool
  /// runs tasks inline, which would re-enter the lock).
  void AdmitFromQueueLocked(
      std::vector<std::pair<std::shared_ptr<Pending>, int64_t>>* started,
      std::vector<ExpiredEntry>* expired);

  /// Resolves an expired-in-queue entry (leader + followers) with
  /// kDeadlineExceeded at "serve.admit". Call without mu_ held.
  static void FulfillExpired(ExpiredEntry* entry);

  /// Bumps running/tenant counters for `pending` and assigns its
  /// sequence. Requires mu_ held.
  int64_t StartLocked(const Pending& pending);

  const ServiceConfig config_;
  const int max_concurrent_;

  /// The log is single-writer (Append / SealEpoch hold log_mu_); query
  /// admission reads only the published snapshot mirror below.
  std::mutex log_mu_;
  EpochLog log_;

  mutable std::mutex mu_;
  std::condition_variable drained_;
  /// Mirror of the log's latest snapshot, republished under mu_ by
  /// SealEpoch so Submit captures (snapshot, epoch) atomically with
  /// admission. Never null.
  std::shared_ptr<const TimeSeriesGraph> live_graph_;
  EpochId live_epoch_ = 0;
  int64_t running_ = 0;
  int64_t next_sequence_ = 0;
  std::deque<std::shared_ptr<Pending>> queue_;
  std::unordered_map<std::string, int64_t> tenant_running_;
  std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight_;
  std::unordered_map<std::string, CachedResult> result_cache_;
  /// One tier per delta. Entries are never erased while the service
  /// lives: engine runs read them outside mu_, and generational
  /// replacement + post-seal sweeps bound their memory instead.
  std::map<Timestamp, std::unique_ptr<SharedWindowCache>> tiers_;
  ServiceStats stats_;

  /// Last member: destroyed first, but the destructor drains the queue
  /// explicitly before ~ThreadPool joins the workers.
  ThreadPool pool_;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_SERVE_QUERY_SERVICE_H_
