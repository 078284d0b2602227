#include "engine/query_engine.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>

#include "core/counter.h"
#include "core/skeleton.h"
#include "core/window_cursor.h"
#include "engine/batching.h"
#include "util/cancellation.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/partition.h"
#include "util/status.h"
#include "util/timer.h"

namespace flowmotif {

namespace {

int ResolveThreads(const QueryOptions& options) {
  // num_threads >= 0 was validated at the engine entry point.
  return options.num_threads == 0 ? ThreadPool::DefaultParallelism()
                                  : options.num_threads;
}

/// Entry-point validation of untrusted options; a failure becomes a
/// kError termination, never a process abort.
Status ValidateQueryOptions(const QueryOptions& options) {
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  if (options.batch_size < 0) {
    return Status::InvalidArgument("batch_size must be >= 0");
  }
  if (options.delta < 0) {
    return Status::InvalidArgument("delta must be non-negative");
  }
  if (options.phi < 0.0) {
    return Status::InvalidArgument("phi must be non-negative");
  }
  if (options.mode == QueryMode::kTopK && options.k < 1) {
    return Status::InvalidArgument("kTopK requires k >= 1");
  }
  if (options.mode == QueryMode::kSignificance &&
      options.num_random_graphs <= 0) {
    return Status::InvalidArgument(
        "kSignificance requires num_random_graphs > 0");
  }
  if (options.shared_cache_tier != nullptr &&
      options.shared_cache_tier->delta() != options.delta) {
    return Status::InvalidArgument(
        "shared_cache_tier is bound to a different delta");
  }
  return Status::OK();
}

/// The kError termination of a run that never started.
Termination InvalidOptionsTermination(Status status) {
  Termination termination;
  termination.code = TerminationCode::kError;
  termination.stopped_at = failpoint::kEngineStart;
  termination.detail = "invalid options";
  termination.status = std::move(status);
  termination.work_completed = 0;
  return termination;
}

/// Surfaces the pool's first task exception (satellite of the lifecycle
/// work: a throwing task is recorded at the task boundary, the pool
/// stays serviceable, and the submitting query reports it here). A
/// thrown batch silently dropped its contribution, so on kError the
/// partial results are best-effort, not a canonical prefix.
void OverlayPoolError(ThreadPool* pool, Termination* termination) {
  Status error = pool->TakeFirstError();
  if (error.ok()) return;
  if (termination->code == TerminationCode::kCompleted) {
    termination->code = TerminationCode::kError;
    termination->stopped_at = "thread_pool";
    termination->detail = "worker task threw";
    termination->status = std::move(error);
  } else if (termination->status.ok()) {
    termination->status = std::move(error);
  }
}

EnumerationOptions ToEnumerationOptions(const QueryOptions& options) {
  EnumerationOptions eopts;
  eopts.delta = options.delta;
  eopts.phi = options.phi;
  eopts.strict_maximality = options.strict_maximality;
  return eopts;
}

/// kTopK stat normalization, applied after the final collector drain:
/// num_instances becomes the number of returned entries (exact and
/// thread-count-invariant; under a hard stop, exact over the canonical
/// match prefix), while the raw threshold-dependent activity — how many
/// emissions survived the floating threshold plus how many prefixes the
/// phi/threshold bound cut — moves to num_pruning_probes, the one
/// counter documented as execution-dependent.
void FinalizeTopKStats(EnumerationResult* stats, size_t num_entries) {
  stats->num_pruning_probes = stats->num_instances + stats->num_phi_prunes;
  stats->num_instances = static_cast<int64_t>(num_entries);
  stats->num_phi_prunes = 0;
}

/// P2 batch cap with more than one thread. Batches are cut per released
/// P1 shard (or from the caller's match list), so the size never
/// depends on completion timing and the batch layout is deterministic;
/// the cap keeps batches small enough for load balancing. At one thread
/// each shard is one batch — the serial scan-then-process layout.
constexpr int64_t kBatchCap = 256;

/// One P2 batch: a contiguous run [begin, end) of one shard's flat
/// match buffer, in canonical (serial discovery) order.
struct MatchRun {
  int64_t first = 0;  // canonical index of match `begin` (DiscoveryRank)
  int64_t shard = 0;  // P1 shard the run came from
  const MatchList* matches = nullptr;
  size_t begin = 0;
  size_t end = 0;

  int64_t size() const { return static_cast<int64_t>(end - begin); }
};

using BatchFn = std::function<void(const MatchRun&)>;

struct PipelineStats {
  double p1_cpu_seconds = 0.0;  // aggregate across P1 shard tasks
  int64_t num_released = 0;     // matches the merger released
  int64_t num_batches = 0;
  /// Smallest shard whose P1 scan the control stopped; int64_t max when
  /// none was. Runs from later shards are not part of any canonical
  /// prefix.
  int64_t stopped_shard_min = std::numeric_limits<int64_t>::max();
};

/// The engine's one P1→P2 route. P1 shard tasks (contiguous work-unit
/// ranges of StructuralMatcher) hand their flat match buffers to a
/// ShardPrefixMerger, which releases them as a contiguous prefix of the
/// serial order; each released shard is cut into MatchRuns that run
/// `batch_fn` on the same pool, concurrently with later P1 shards. With
/// `given` non-null P1 is skipped and the list is released as one
/// pre-released shard. At one thread the pool runs every task inline,
/// so the pipeline degenerates to the serial scan-then-process order.
///
/// Under a control the matcher checks it before every unit of a shard
/// (site "p1.unit"); a shard whose scan stops keeps its leading units (a
/// canonical prefix within the shard) and is recorded in
/// stopped_shard_min. WorkBudget::max_matches is applied by the merger:
/// nothing past canonical index max_matches is released, and a dropped
/// match is reported as a soft kBudgetExceeded at "p1.unit".
PipelineStats RunPipeline(const TimeSeriesGraph& graph, const Motif& motif,
                          const QueryOptions& options,
                          const MatchList* given, ThreadPool* pool,
                          QueryControl* control, const BatchFn& batch_fn) {
  const StructuralMatcher matcher(graph, motif);
  const size_t stride = static_cast<size_t>(motif.num_nodes());
  // P1 shards: contiguous work-unit ranges, several per worker so
  // dynamic scheduling absorbs the match-density skew across origins.
  const std::vector<IndexRange> ranges =
      given != nullptr
          ? std::vector<IndexRange>(1)
          : PartitionIndexSpace(matcher.NumWorkUnits(), pool->num_threads());
  const int64_t num_shards = static_cast<int64_t>(ranges.size());
  // 0 = one batch per shard.
  const int64_t batch_cap =
      options.batch_size > 0       ? options.batch_size
      : pool->num_threads() == 1 ? 0
                                   : kBatchCap;
  const int64_t max_matches =
      control != nullptr ? control->budget().max_matches : -1;

  ShardPrefixMerger merger(num_shards, max_matches);
  // Outstanding P2 batches per shard: the last batch to finish frees
  // the shard's match buffer, so peak memory tracks the in-flight
  // window rather than the full match list. Stored before the shard's
  // batches are submitted (a batch may start on another worker
  // immediately).
  std::vector<std::atomic<int64_t>> pending_batches(ranges.size());
  // Per-shard accounting, each slot written by the one task that scans
  // or releases the shard and read after pool->Wait().
  std::vector<double> p1_seconds(ranges.size(), 0.0);
  std::vector<int64_t> num_batches(ranges.size(), 0);
  // Relaxed is enough: read after pool->Wait().
  std::atomic<int64_t> stopped_min{std::numeric_limits<int64_t>::max()};

  // Cuts one released shard into P2 batches and submits them to the
  // *front* of the pool's queue: they must run ahead of the still-
  // queued P1 shard tasks, or FIFO order would finish all of P1 (every
  // shard buffer live at once) before P2 starts — the batch/free
  // cadence is what bounds in-flight memory.
  const auto release = [&](int64_t shard, int64_t first,
                           const MatchList& matches) {
    const int64_t n = static_cast<int64_t>(matches.size());
    const int64_t cap = batch_cap > 0 ? batch_cap : std::max<int64_t>(n, 1);
    const int64_t shard_batches = (n + cap - 1) / cap;
    if (shard_batches == 0) {
      merger.FreeShard(shard);
      return;
    }
    num_batches[static_cast<size_t>(shard)] = shard_batches;
    pending_batches[static_cast<size_t>(shard)].store(
        shard_batches, std::memory_order_relaxed);
    for (int64_t b = 0; b < n; b += cap) {
      const MatchRun run{first + b, shard, &matches, static_cast<size_t>(b),
                         static_cast<size_t>(std::min(n, b + cap))};
      pool->SubmitFront([&batch_fn, &merger, &pending_batches, run] {
        batch_fn(run);
        // acq_rel orders every batch's reads of the buffer before the
        // last decrementer's free.
        if (pending_batches[static_cast<size_t>(run.shard)].fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
          merger.FreeShard(run.shard);
        }
      });
    }
  };

  if (given != nullptr) {
    release(0, 0, *given);
  }
  // Every task — P1 shard and P2 batch alike — goes through the one
  // pool; a shard task that completes the release prefix submits the
  // batches of every shard it released. Tasks never block on each
  // other, so the single Wait() below drains the whole pipeline. All
  // state outlives Wait(), so reference captures are safe.
  for (int64_t r = 0; given == nullptr && r < num_shards; ++r) {
    pool->Submit([&, r] {
      WallTimer timer;
      const IndexRange& range = ranges[static_cast<size_t>(r)];
      MatchList shard(stride);
      // A shard holding more than max_matches matches already proves
      // the cap is hit (its first canonical index is >= 0), so it stops
      // scanning there.
      bool capped = false;
      const bool completed = matcher.FindInUnits(
          range.begin, range.end,
          [&shard, &capped, max_matches](MatchRef m) {
            shard.Append(m);
            capped = max_matches >= 0 &&
                     static_cast<int64_t>(shard.size()) > max_matches;
            return !capped;
          },
          control);
      if (!completed && !capped) {
        // The control stopped the scan at "p1.unit".
        int64_t cur = stopped_min.load(std::memory_order_relaxed);
        while (r < cur && !stopped_min.compare_exchange_weak(
                              cur, r, std::memory_order_relaxed)) {
        }
      }
      p1_seconds[static_cast<size_t>(r)] = timer.ElapsedSeconds();
      for (const ShardPrefixMerger::ReleasedShardEntry& entry :
           merger.Complete(r, std::move(shard))) {
        release(entry.shard, entry.released.first_match_index,
                *entry.released.matches);
      }
    });
  }
  pool->Wait();
  if (merger.truncated()) {
    control->MarkTruncated(TerminationCode::kBudgetExceeded,
                           failpoint::kP1Unit, "max_matches");
  }
  PipelineStats stats;
  for (size_t r = 0; r < ranges.size(); ++r) {
    stats.p1_cpu_seconds += p1_seconds[r];
    stats.num_batches += num_batches[r];
  }
  stats.num_released = merger.num_released();
  stats.stopped_shard_min = stopped_min.load(std::memory_order_relaxed);
  return stats;
}

/// Per-batch outputs of one pipeline pass, recorded concurrently and
/// folded in canonical match order — never a torn merge.
template <typename Out>
class BatchOutputs {
 public:
  void Add(const MatchRun& run, Out out) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back({run.first, run.shard, run.size(), std::move(out)});
  }

  /// The canonical-prefix fold. Calls `fold(out)` — which merges one
  /// output and returns how many of its leading matches it covers — in
  /// match order, and stops at a gap (a batch that never ran), at a
  /// batch from a shard after `stopped_shard_min`, or after the first
  /// short batch, whose leading partial output is still included.
  /// Returns the number of matches folded. Call after the pipeline
  /// drained.
  template <typename FoldFn>
  int64_t Fold(int64_t stopped_shard_min, FoldFn fold) {
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) { return a.first < b.first; });
    int64_t expected = 0;
    int64_t matches_done = 0;
    for (Entry& e : entries_) {
      if (e.first != expected || e.shard > stopped_shard_min) break;
      const int64_t done = fold(e.out);
      matches_done += done;
      if (done != e.size) break;
      expected += e.size;
    }
    return matches_done;
  }

 private:
  struct Entry {
    int64_t first;
    int64_t shard;
    int64_t size;
    Out out;
  };
  std::mutex mu_;
  std::vector<Entry> entries_;
};

/// The P2 loop shared by every mode but kTop1 (whose DP searcher runs
/// its own, checked at "dp.match"): `body(match, canonical_index)` per
/// match. `control` (may be null) is checked per match at site
/// "p2.batch"; a stop ends the run after a leading prefix of its
/// matches. Returns the number of matches processed — fewer than
/// run.size() marks the batch short.
template <typename Body>
int64_t ForEachMatch(const MatchRun& run, QueryControl* control, Body body) {
  // Batch boundary: an unthrottled deadline read, so a fresh batch
  // never starts on an already-expired deadline — overshoot stays
  // bounded by one batch's throttle window, never a multiple of it.
  if (control != nullptr && control->CheckAtBoundary(failpoint::kP2Batch)) {
    return 0;
  }
  int64_t done = 0;
  for (size_t i = run.begin; i < run.end; ++i, ++done) {
    if (control != nullptr && control->CheckAt(failpoint::kP2Batch)) break;
    body((*run.matches)[i], run.first + done);
  }
  return done;
}

/// Top-k over one run: every emission is offered to `local` under its
/// DiscoveryRank and observed by `threshold` (which feeds the
/// enumerator's floating bound).
EnumerationResult TopKRun(const FlowMotifEnumerator& enumerator,
                          SharedFlowThreshold* threshold, const MatchRun& run,
                          QueryControl* control, WindowListMru* reader,
                          TopKCollector* local) {
  EnumerationResult stats;
  WallTimer timer;
  stats.num_structural_matches = ForEachMatch(
      run, control, [&](MatchRef match, int64_t m_index) {
        int64_t emit_index = 0;
        enumerator.EnumerateMatch(
            match,
            [local, threshold, m_index, &emit_index](const InstanceView& v) {
              local->Offer(v.flow, DiscoveryRank{m_index, emit_index++}, v);
              threshold->Observe(v.flow);
              return true;
            },
            &stats, reader);
      });
  stats.phase2_seconds = timer.ElapsedSeconds();
  return stats;
}

/// Checkout pool of DP scratches for kTop1: a P2 batch borrows one for
/// the duration of its RunOnMatches call, so a worker's successive
/// batches reuse the same timeline/table buffers and window-list reader
/// instead of reallocating per batch. Scratch contents never influence
/// results — only where the buffers live — so the checkout order is
/// free to vary with scheduling.
class DpScratchPool {
 public:
  std::unique_ptr<MaxFlowDpSearcher::Scratch> Acquire() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        std::unique_ptr<MaxFlowDpSearcher::Scratch> scratch =
            std::move(free_.back());
        free_.pop_back();
        return scratch;
      }
    }
    return std::make_unique<MaxFlowDpSearcher::Scratch>();
  }

  void Release(std::unique_ptr<MaxFlowDpSearcher::Scratch> scratch) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(scratch));
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<MaxFlowDpSearcher::Scratch>> free_;
};

/// The full match list in canonical order, from the pipeline's P1
/// shards (RunSweep's P1). Under a stop it is the canonical prefix the
/// scan reached; under WorkBudget::max_matches, the first max_matches.
MatchList CollectMatches(const TimeSeriesGraph& graph, const Motif& motif,
                         const QueryOptions& options, ThreadPool* pool,
                         QueryControl* control) {
  const size_t stride = static_cast<size_t>(motif.num_nodes());
  BatchOutputs<MatchList> outputs;
  const PipelineStats stream = RunPipeline(
      graph, motif, options, nullptr, pool, control,
      [&outputs, stride](const MatchRun& run) {
        MatchList batch(stride);
        batch.Reserve(static_cast<size_t>(run.size()));
        for (size_t i = run.begin; i < run.end; ++i) {
          batch.Append((*run.matches)[i]);
        }
        outputs.Add(run, std::move(batch));
      });
  MatchList matches(stride);
  matches.Reserve(static_cast<size_t>(stream.num_released));
  outputs.Fold(stream.stopped_shard_min, [&matches](MatchList& batch) {
    matches.Append(batch);
    const int64_t n = static_cast<int64_t>(batch.size());
    batch.Release();
    return n;
  });
  return matches;
}

}  // namespace

QueryResult QueryEngine::Run(const Motif& motif,
                             const QueryOptions& options) const {
  return RunQuery(motif, options, nullptr);
}

QueryResult QueryEngine::RunOnMatches(const Motif& motif,
                                      const std::vector<MatchBinding>& matches,
                                      const QueryOptions& options) const {
  // Flattened once: every P2 batch then reads a slice of the flat list.
  const MatchList list(static_cast<size_t>(motif.num_nodes()), matches);
  return RunQuery(motif, options, &list);
}

QueryResult QueryEngine::RunQuery(const Motif& motif,
                                  const QueryOptions& options,
                                  const MatchList* given) const {
  WallTimer wall;
  QueryResult result;
  result.mode = options.mode;
  Status valid = ValidateQueryOptions(options);
  if (valid.ok() && given != nullptr &&
      options.mode == QueryMode::kSignificance) {
    valid = Status::InvalidArgument(
        "kSignificance computes and reuses its own matches; use Run()");
  }
  if (!valid.ok()) {
    result.termination = InvalidOptionsTermination(valid);
    result.wall_seconds = wall.ElapsedSeconds();
    return result;
  }

  const std::unique_ptr<QueryControl> control_owner = MakeQueryControl(
      options.cancel_token, options.deadline, options.budget);
  QueryControl* const control = control_owner.get();
  ThreadPool pool(ResolveThreads(options));
  result.threads_used = pool.num_threads();

  if (control != nullptr && control->CheckAt(failpoint::kEngineStart)) {
    result.termination = control->Finish(0);
    result.wall_seconds = wall.ElapsedSeconds();
    return result;
  }

  if (options.mode == QueryMode::kSignificance) {
    RunSignificance(motif, options, &pool, control, &result);
  } else {
    Execute(motif, options, given, &pool, control, &result);
  }
  OverlayPoolError(&pool, &result.termination);
  result.wall_seconds = wall.ElapsedSeconds();
  return result;
}

SweepResult QueryEngine::RunSweep(const Motif& motif, const SweepQuery& sweep,
                                  const QueryOptions& options) const {
  WallTimer wall;
  SweepResult result;
  result.deltas = sweep.deltas;
  result.phis = sweep.phis;
  Status valid = Status::OK();
  if (options.num_threads < 0) {
    valid = Status::InvalidArgument("num_threads must be >= 0");
  } else if (options.batch_size < 0) {
    valid = Status::InvalidArgument("batch_size must be >= 0");
  } else if (sweep.deltas.empty()) {
    valid = Status::InvalidArgument("sweep needs at least one delta");
  } else if (sweep.phis.empty()) {
    valid = Status::InvalidArgument("sweep needs at least one phi");
  } else {
    for (const Timestamp delta : sweep.deltas) {
      if (delta < 0) {
        valid = Status::InvalidArgument("sweep deltas must be non-negative");
        break;
      }
    }
    for (const Flow phi : sweep.phis) {
      if (phi < 0.0) {
        valid = Status::InvalidArgument("sweep phis must be non-negative");
        break;
      }
    }
  }
  if (!valid.ok()) {
    result.termination = InvalidOptionsTermination(valid);
    result.wall_seconds = wall.ElapsedSeconds();
    return result;
  }
  result.counts.assign(sweep.deltas.size() * sweep.phis.size(), 0);
  result.cell_valid.assign(result.counts.size(), 0);

  const std::unique_ptr<QueryControl> control_owner = MakeQueryControl(
      options.cancel_token, options.deadline, options.budget);
  QueryControl* const control = control_owner.get();
  ThreadPool pool(ResolveThreads(options));
  result.threads_used = pool.num_threads();
  if (control != nullptr && control->CheckAt(failpoint::kEngineStart)) {
    result.termination = control->Finish(0);
    result.wall_seconds = wall.ElapsedSeconds();
    return result;
  }

  // Phase P1 once for the whole grid: structural matches depend on
  // neither delta nor phi, so per-point querying re-derives the same
  // list |grid| times.
  const MatchList matches =
      CollectMatches(graph_, motif, options, &pool, control);
  result.num_structural_matches = static_cast<int64_t>(matches.size());
  if (control != nullptr && control->ShouldStop()) {
    // A hard stop during P1 left an incomplete match list; no cell
    // computed over it would equal its per-point kCount run, so all
    // cells stay invalid. (A soft max_matches truncation is different:
    // cells over the kept prefix are exact for that prefix.)
    result.termination = control->Finish(0);
    OverlayPoolError(&pool, &result.termination);
    result.wall_seconds = wall.ElapsedSeconds();
    return result;
  }

  // Deltas are recorded largest-first regardless of the caller's grid
  // order: RecordSweepDescending makes one pass over the match list,
  // recording every delta's skeleton while each match's series are hot
  // and cascading per-match viability (no phi = 0 completion at a
  // larger delta proves the match dead for all smaller ones — windows
  // shrink monotonically with delta and raising phi only removes
  // instances). On the Fig. 9 presets the bulk of structural matches
  // are dead, so the grid's tail costs O(|viable|), not O(|matches|).
  std::vector<size_t> order(sweep.deltas.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&sweep](size_t a, size_t b) {
    return sweep.deltas[a] > sweep.deltas[b];
  });

  std::vector<EnumerationSkeleton> skeletons;  // aligned with `order`
  if (options.skeleton_replay) {
    std::vector<Timestamp> descending(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      descending[i] = sweep.deltas[order[i]];
    }
    // A stop mid-recording abandons every skeleton (a partial trace
    // would replay wrong counts); the per-cell fallback below observes
    // the same stop and terminates promptly.
    EnumerationSkeleton::RecordSweepDescending(
        graph_, motif, descending, matches, EnumerationSkeleton::Options(),
        &skeletons, control);
  }

  int64_t valid_cells = 0;
  bool stopped = false;
  FlowPrefixArena arena;  // real-graph prefixes; filled once, delta-free
  for (size_t i = 0; i < order.size() && !stopped; ++i) {
    const size_t d = order[i];
    const Timestamp delta = sweep.deltas[d];
    int64_t* row = result.counts.data() + d * sweep.phis.size();
    uint8_t* row_valid = result.cell_valid.data() + d * sweep.phis.size();
    if (options.skeleton_replay && skeletons[i].recorded()) {
      // The recorded trace is phi-free: evaluate every slice flow once,
      // then each phi is one linear DP pass over the cached flows.
      if (arena.size() == 0) arena.FillFromGraph(graph_);
      SkeletonReplayer replayer(&skeletons[i]);
      replayer.EvaluateFlows(arena);
      for (size_t p = 0; p < sweep.phis.size(); ++p) {
        if (control != nullptr && control->CheckAt(failpoint::kSweepCell)) {
          stopped = true;
          break;
        }
        row[p] = replayer.CountWithFlows(sweep.phis[p]);
        row_valid[p] = 1;
        ++valid_cells;
      }
      if (!stopped) ++result.num_replayed_deltas;
      continue;
    }
    // Fallback (replay disabled, stopped, or this delta's recording
    // abandoned on budget): an ordinary kCount pass per cell over the
    // shared match list — the per-point kCount route minus its
    // redundant P1 runs.
    for (size_t p = 0; p < sweep.phis.size(); ++p) {
      if (control != nullptr && control->CheckAt(failpoint::kSweepCell)) {
        stopped = true;
        break;
      }
      QueryOptions cell = options;
      cell.mode = QueryMode::kCount;
      cell.delta = delta;
      cell.phi = sweep.phis[p];
      cell.shared_cache_tier = nullptr;  // a tier serves one delta only
      QueryResult cell_result;
      Execute(motif, cell, &matches, &pool, control, &cell_result);
      if (control != nullptr && control->ShouldStop()) {
        // The cell itself was cut short; its count is partial.
        stopped = true;
        break;
      }
      row[p] = cell_result.stats.num_instances;
      row_valid[p] = 1;
      ++valid_cells;
      ++result.num_fallback_cells;
    }
  }
  if (control != nullptr) {
    result.termination = control->Finish(valid_cells);
  } else {
    result.termination.work_completed = valid_cells;
  }
  OverlayPoolError(&pool, &result.termination);
  result.wall_seconds = wall.ElapsedSeconds();
  return result;
}

void QueryEngine::Execute(const Motif& motif, const QueryOptions& options,
                          const MatchList* given, ThreadPool* pool,
                          QueryControl* control, QueryResult* result) const {
  // Every batch reads its window lists through its own reader (a DP
  // Scratch's for kTop1), backed by the caller's cross-query tier when
  // one is given.
  SharedWindowCache* const tier = options.shared_cache_tier;
  // Runs the pipeline with one mode's batch body; returns the shard
  // bound the canonical-prefix fold needs.
  const auto run_pipeline = [&](const BatchFn& batch_fn) {
    const PipelineStats stream =
        RunPipeline(graph_, motif, options, given, pool, control, batch_fn);
    result->stats.phase1_seconds = stream.p1_cpu_seconds;
    result->num_batches = stream.num_batches;
    return stream.stopped_shard_min;
  };

  int64_t matches_done = 0;
  switch (options.mode) {
    case QueryMode::kEnumerate: {
      const FlowMotifEnumerator enumerator(graph_, motif,
                                           ToEnumerationOptions(options));
      const int64_t limit = options.collect_limit;
      struct Out {
        EnumerationResult stats;
        std::vector<MotifInstance> collected;
      };
      BatchOutputs<Out> outputs;
      const int64_t stopped = run_pipeline([&](const MatchRun& run) {
        Out out;
        InstanceVisitor visitor;  // stays null (counters only) at limit 0
        if (limit != 0) {
          // Each batch keeps at most `limit` instances, which include
          // every one of the global first `limit` that falls in the
          // batch, so the in-order fold can truncate without losing any.
          visitor = [&out, limit](const InstanceView& view) {
            if (limit < 0 ||
                static_cast<int64_t>(out.collected.size()) < limit) {
              out.collected.push_back(view.Materialize());
            }
            return true;
          };
        }
        WallTimer timer;
        WindowListMru reader(options.delta, tier, control);
        out.stats.num_structural_matches = ForEachMatch(
            run, control, [&](MatchRef match, int64_t) {
              enumerator.EnumerateMatch(match, visitor, &out.stats, &reader);
            });
        out.stats.phase2_seconds = timer.ElapsedSeconds();
        outputs.Add(run, std::move(out));
      });
      matches_done = outputs.Fold(stopped, [&](Out& out) {
        result->stats.MergeFrom(out.stats);
        for (MotifInstance& instance : out.collected) {
          if (limit >= 0 &&
              static_cast<int64_t>(result->instances.size()) >= limit) {
            break;
          }
          result->instances.push_back(std::move(instance));
        }
        return out.stats.num_structural_matches;
      });
      break;
    }
    case QueryMode::kCount: {
      const InstanceCounter counter(graph_, motif, options.delta,
                                    options.phi);
      struct Out {
        InstanceCounter::Result counts;
        double seconds = 0.0;
      };
      BatchOutputs<Out> outputs;
      const int64_t stopped = run_pipeline([&](const MatchRun& run) {
        Out out;
        WallTimer timer;
        WindowListMru reader(options.delta, tier, control);
        out.counts.num_structural_matches = ForEachMatch(
            run, control, [&](MatchRef match, int64_t) {
              out.counts.num_instances +=
                  counter.CountMatch(match, &out.counts, &reader);
            });
        out.seconds = timer.ElapsedSeconds();
        outputs.Add(run, std::move(out));
      });
      matches_done = outputs.Fold(stopped, [result](const Out& out) {
        result->stats.num_instances += out.counts.num_instances;
        result->stats.num_structural_matches +=
            out.counts.num_structural_matches;
        result->stats.num_windows_processed += out.counts.num_windows;
        result->memo_hits += out.counts.memo_hits;
        result->stats.phase2_seconds += out.seconds;
        return out.counts.num_structural_matches;
      });
      break;
    }
    case QueryMode::kTopK: {
      TopKCollector global(options.k);
      if (control == nullptr) {
        // The shared threshold tracks the k-th best flow across *all*
        // workers' emissions, so it tightens before any single
        // collector fills and matches the serial searcher's pruning
        // rate. Batches fold into the global collector as they finish:
        // the bounded collector is insertion-order-independent and the
        // counters are sums.
        SharedFlowThreshold shared(options.k);
        EnumerationOptions eopts = ToEnumerationOptions(options);
        eopts.dynamic_min_flow_exclusive = [&shared] {
          return shared.ExclusiveBound();
        };
        const FlowMotifEnumerator enumerator(graph_, motif, eopts);
        std::mutex mu;
        run_pipeline([&](const MatchRun& run) {
          TopKCollector local(options.k);
          WindowListMru reader(options.delta, tier);
          const EnumerationResult stats =
              TopKRun(enumerator, &shared, run, nullptr, &reader, &local);
          std::lock_guard<std::mutex> lock(mu);
          global.MergeFrom(std::move(local));
          result->stats.MergeFrom(stats);
        });
      } else {
        // Control active: batch-local thresholds and collectors. A
        // cross-batch Observe would let out-of-prefix emissions tighten
        // pruning inside prefix batches, and the fold of a batch prefix
        // would no longer be the exact top-k over exactly those
        // matches. The price is slower threshold tightening, which
        // changes pruning counters but never result entries.
        struct Out {
          TopKCollector local;
          EnumerationResult stats;
        };
        BatchOutputs<Out> outputs;
        const int64_t stopped = run_pipeline([&](const MatchRun& run) {
          SharedFlowThreshold threshold(options.k);
          EnumerationOptions eopts = ToEnumerationOptions(options);
          eopts.dynamic_min_flow_exclusive = [&threshold] {
            return threshold.ExclusiveBound();
          };
          const FlowMotifEnumerator enumerator(graph_, motif, eopts);
          Out out{TopKCollector(options.k), EnumerationResult()};
          WindowListMru reader(options.delta, tier, control);
          out.stats = TopKRun(enumerator, &threshold, run, control, &reader,
                              &out.local);
          outputs.Add(run, std::move(out));
        });
        matches_done = outputs.Fold(stopped, [&](Out& out) {
          global.MergeFrom(std::move(out.local));
          result->stats.MergeFrom(out.stats);
          return out.stats.num_structural_matches;
        });
      }
      result->topk = global.Drain();
      FinalizeTopKStats(&result->stats, result->topk.size());
      break;
    }
    case QueryMode::kTop1: {
      MaxFlowDpSearcher searcher(graph_, motif, options.delta, tier);
      searcher.set_query_control(control);
      using DpResult = MaxFlowDpSearcher::Result;
      DpScratchPool scratch_pool;
      BatchOutputs<DpResult> outputs;
      const int64_t stopped = run_pipeline([&](const MatchRun& run) {
        std::unique_ptr<MaxFlowDpSearcher::Scratch> scratch =
            scratch_pool.Acquire();
        DpResult out = searcher.RunOnMatches(*run.matches, run.begin,
                                             run.end, scratch.get(), control);
        scratch_pool.Release(std::move(scratch));
        outputs.Add(run, std::move(out));
      });
      // Batch incumbents fold in match order with the strictly-greater
      // rule — the serial searcher's per-match rule — so the earliest
      // match wins flow ties; the incumbent of a batch covers exactly
      // its matches_processed leading matches.
      DpResult best;
      matches_done = outputs.Fold(stopped, [&best](DpResult& out) {
        const int64_t done = out.matches_processed;
        const int64_t num_windows = best.num_windows + out.num_windows;
        const double seconds = best.seconds + out.seconds;
        if (out.found && (!best.found || out.max_flow > best.max_flow)) {
          best = std::move(out);
        }
        best.num_windows = num_windows;
        best.seconds = seconds;
        return done;
      });
      result->stats.num_structural_matches = matches_done;
      result->stats.num_windows_processed = best.num_windows;
      result->stats.phase2_seconds = best.seconds;
      if (best.found) result->stats.num_instances = 1;
      result->top1 = std::move(best);
      break;
    }
    case QueryMode::kSignificance:
      FLOWMOTIF_CHECK(false) << "kSignificance has its own route";
      return;
  }
  if (control != nullptr) {
    result->termination = control->Finish(matches_done);
  }
}

std::unique_ptr<StreamingMotifMonitor> QueryEngine::OpenStream(
    const Motif& motif, const StreamOptions& options) const {
  // Flatten the immutable graph back into its multigraph form and seed
  // a fresh log with it: TimeSeriesGraph::Build on this multigraph
  // reproduces every series byte for byte (series are sorted by the
  // deterministic (t, f) order), so the monitor's epoch 0 matches the
  // engine's graph exactly.
  InteractionGraph seed;
  seed.EnsureVertices(graph_.num_vertices());
  for (const TimeSeriesGraph::PairEdge& pair : graph_.pairs()) {
    for (size_t i = 0; i < pair.series.size(); ++i) {
      const Interaction x = pair.series.at(i);
      const Status status = seed.AddEdge(pair.src, pair.dst, x.t, x.f);
      FLOWMOTIF_CHECK(status.ok()) << status;
    }
  }
  return std::make_unique<StreamingMotifMonitor>(motif, options, seed);
}

void QueryEngine::RunSignificance(const Motif& motif,
                                  const QueryOptions& options,
                                  ThreadPool* pool, QueryControl* control,
                                  QueryResult* result) const {
  // num_random_graphs > 0 was validated at the engine entry point.
  SignificanceAnalyzer::Options sopts;
  sopts.num_random_graphs = options.num_random_graphs;
  sopts.seed = options.seed;
  sopts.delta = options.delta;
  sopts.phi = options.phi;
  if (!options.skeleton_replay) sopts.max_skeleton_edges = 0;
  sopts.pool = pool;
  sopts.control = control;
  const SignificanceAnalyzer analyzer(graph_, sopts);
  result->significance = analyzer.Analyze(motif);
  result->stats.num_instances = result->significance.real_count;
  result->termination = result->significance.termination;
}

}  // namespace flowmotif
