#ifndef FLOWMOTIF_ENGINE_QUERY_ENGINE_H_
#define FLOWMOTIF_ENGINE_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dp.h"
#include "core/enumerator.h"
#include "core/instance.h"
#include "core/motif.h"
#include "core/significance.h"
#include "core/structural_match.h"
#include "core/topk.h"
#include "engine/query_options.h"
#include "graph/time_series_graph.h"
#include "stream/streaming_monitor.h"
#include "util/thread_pool.h"

namespace flowmotif {

/// Unified result of a QueryEngine run. `stats` carries the enumeration
/// counters every mode reports (instances, matches, windows, prunes);
/// the mode-specific payload lives in the field named after the mode.
struct QueryResult {
  QueryMode mode = QueryMode::kEnumerate;

  /// Unified counters. phase1_seconds is the aggregate CPU seconds of
  /// the P1 shard tasks (0 for RunOnMatches, which skips P1) and
  /// phase2_seconds the aggregate CPU seconds of the P2 batches (see
  /// EnumerationResult::MergeFrom); the phases overlap, so neither is a
  /// wall time except at one thread. wall_seconds below is always the
  /// end-to-end time. In kTopK mode num_instances is the number of
  /// returned entries (== topk.size()) and num_phi_prunes is 0: the
  /// floating threshold makes the raw survivor/prune counts depend on
  /// how fast it tightened, so that execution-dependent activity is
  /// quarantined in num_pruning_probes. Every other stat is
  /// deterministic at any thread count — under a hard stop, exact over
  /// the canonical match prefix — except num_batches and, in kTopK,
  /// num_domination_skips (a prefix the floating threshold cuts never
  /// reaches the domination probe): these, like num_pruning_probes, may
  /// differ across thread counts and batch sizes (batch boundaries are
  /// an execution detail).
  EnumerationResult stats;

  /// kCount: memoization hits of the counting recursion.
  int64_t memo_hits = 0;

  /// kEnumerate: up to QueryOptions::collect_limit materialized
  /// instances, in serial discovery order for every thread count.
  std::vector<MotifInstance> instances;

  /// kTopK: entries sorted by decreasing flow, discovery order breaking
  /// ties. Byte-identical for every thread count.
  std::vector<TopKEntry> topk;

  /// kTop1: the DP searcher's best instance (earliest structural match
  /// wins flow ties, as in the serial searcher).
  MaxFlowDpSearcher::Result top1;

  /// kSignificance: the per-motif report.
  SignificanceAnalyzer::MotifReport significance;

  /// Execution footprint.
  int threads_used = 1;
  int64_t num_batches = 0;
  double wall_seconds = 0.0;

  /// Lifecycle outcome (DESIGN.md Sec. 10). When not complete(), the
  /// payload covers exactly the first `termination.work_completed`
  /// structural matches in canonical (serial discovery) order — a
  /// deterministic prefix for a given stop point, never a torn merge —
  /// except after kError (a worker task threw, or the options failed
  /// validation), where partial results are best-effort.
  Termination termination;
};

/// Result of QueryEngine::RunSweep: one instance count per cell of the
/// SweepQuery grid, row-major over (delta, phi). Cell (d, p) holds
/// exactly the num_instances a kCount Run at (deltas[d], phis[p]) would
/// report — the sweep equivalence tests lock this in.
struct SweepResult {
  std::vector<Timestamp> deltas;
  std::vector<Flow> phis;
  std::vector<int64_t> counts;  // counts[d * phis.size() + p]

  int64_t count(size_t d, size_t p) const {
    return counts[d * phis.size() + p];
  }

  /// Execution footprint: matches are computed once for the grid;
  /// each delta is either answered by one recording + |phis| replays
  /// (num_replayed_deltas) or by per-cell memoized counting
  /// (num_fallback_cells).
  int64_t num_structural_matches = 0;
  int64_t num_replayed_deltas = 0;
  int64_t num_fallback_cells = 0;
  int threads_used = 1;
  double wall_seconds = 0.0;

  /// Lifecycle outcome. When not complete(), only cells with
  /// cell_valid[i] != 0 were computed (work_completed counts them);
  /// the other counts entries are meaningless zeros. A budget-truncated
  /// match list (WorkBudget::max_matches) marks cells valid over that
  /// match prefix and reports kBudgetExceeded.
  Termination termination;
  std::vector<uint8_t> cell_valid;  // aligned with counts; 1 = computed
};

/// The single entry point for flow motif queries: one facade over the
/// four paper query modes (threshold enumeration, top-k, top-1 DP,
/// significance) plus construction-free counting, configured by one
/// QueryOptions struct.
///
/// Execution is the paper's two-phase algorithm on one route for
/// kEnumerate, kCount, kTopK and kTop1, parallel in both phases. Phase
/// P1 decomposes into StructuralMatcher work units (origins /
/// first-edge images) scanned as shards; a ShardPrefixMerger releases
/// completed shards as a contiguous prefix of the serial match order,
/// and each released shard is cut into P2 batches that run on the same
/// worker pool while later P1 shards are still matching — no barrier
/// between the phases. Shards hold their matches flat (one MatchList
/// buffer each, freed when the shard's last batch retires), and P2
/// reads them through MatchRef views, so no match is ever copied into
/// its own heap vector. RunOnMatches flattens its given list once and
/// feeds it into the same batches as one pre-released shard, and a
/// serial run is the 1-thread case of the pipeline. Every batch fills batch-local state (an
/// EnumerationResult, a bounded top-k collector, a DP incumbent) that
/// one canonical-prefix fold merges in serial match order, so results
/// are byte-identical across thread counts — the parallel-vs-serial
/// equivalence property test locks this in. The modes differ only in
/// their batch body and their merge.
///
/// Thread-compatible: one engine may serve concurrent Run calls, since
/// all mutable state is per-call. The engine itself is a stateless
/// view over the graph reference and so is cheap to construct — the
/// serving layer (DESIGN.md Sec. 11) builds one per admitted request
/// on the stack, bound to the epoch snapshot captured at admission, so
/// queries keep running against their snapshot while SealEpoch
/// publishes new ones. Each P2 worker's window-list reader leases the
/// cross-query tier named by QueryOptions::shared_cache_tier for the
/// reader's lifetime, so every pointer the tier served it outlives any
/// concurrent rotation or post-seal sweep.
class QueryEngine {
 public:
  explicit QueryEngine(const TimeSeriesGraph& graph) : graph_(graph) {}
  // The engine keeps a reference to the graph: temporaries would dangle.
  explicit QueryEngine(TimeSeriesGraph&&) = delete;

  /// Full two-phase run of the selected mode.
  QueryResult Run(const Motif& motif, const QueryOptions& options) const;

  /// Phase P2 only, over externally computed structural matches (used
  /// by benchmarks that isolate P2), each with one vertex per motif
  /// node. Not available for kSignificance, which owns its match reuse
  /// internally.
  QueryResult RunOnMatches(const Motif& motif,
                           const std::vector<MatchBinding>& matches,
                           const QueryOptions& options) const;

  /// Evaluates a whole delta x phi count grid in one pass (Fig. 9/10
  /// curves): phase P1 once, one skeleton recording per delta, one
  /// replay per phi — instead of one full two-phase query per cell.
  /// Cells equal per-point kCount runs byte-for-byte. QueryOptions
  /// supplies execution knobs (num_threads, skeleton_replay,
  /// batch_size); its mode/delta/phi fields are ignored.
  SweepResult RunSweep(const Motif& motif, const SweepQuery& sweep,
                       const QueryOptions& options) const;

  /// Opens a continuous query seeded with this engine's graph: a
  /// StreamingMotifMonitor (stream/streaming_monitor.h) whose epoch 0
  /// answers exactly as this engine would, and which stays batch-
  /// equivalent at every later SealEpoch. The monitor owns an
  /// independent EpochLog built from a copy of the graph's interactions;
  /// it does not alias the engine's graph, so the engine and the stream
  /// may be used (and dropped) independently.
  std::unique_ptr<StreamingMotifMonitor> OpenStream(
      const Motif& motif, const StreamOptions& options) const;

  const TimeSeriesGraph& graph() const { return graph_; }

 private:
  /// Run and RunOnMatches: validation, lifecycle control and pool
  /// around Execute (or RunSignificance). `given` is RunOnMatches'
  /// flattened match list, null for Run.
  QueryResult RunQuery(const Motif& motif, const QueryOptions& options,
                       const MatchList* given) const;

  /// The one P1→P2 route of kEnumerate, kCount, kTopK and kTop1: the
  /// streamed pipeline with the mode's batch body, then the mode's
  /// merge over the canonical match prefix. P1 runs unless `given`
  /// supplies the match list.
  void Execute(const Motif& motif, const QueryOptions& options,
               const MatchList* given, ThreadPool* pool,
               QueryControl* control, QueryResult* result) const;

  void RunSignificance(const Motif& motif, const QueryOptions& options,
                       ThreadPool* pool, QueryControl* control,
                       QueryResult* result) const;

  const TimeSeriesGraph& graph_;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_ENGINE_QUERY_ENGINE_H_
