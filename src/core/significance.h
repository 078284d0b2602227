#ifndef FLOWMOTIF_CORE_SIGNIFICANCE_H_
#define FLOWMOTIF_CORE_SIGNIFICANCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/match_list.h"
#include "core/motif.h"
#include "core/skeleton.h"
#include "core/window_cursor.h"
#include "graph/time_series_graph.h"
#include "util/cancellation.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace flowmotif {

/// Motif significance analysis (Sec. 6.3, Fig. 14). Randomized versions
/// of the input graph are generated by permuting the multiset of flow
/// values over all interactions while keeping the structure and the
/// timestamps fixed. The number of flow motif instances is counted on the
/// real graph and on each randomized graph; a motif is significant when
/// the real count exceeds the randomized counts by many standard
/// deviations (z-score) with a low empirical p-value.
///
/// Because only flows are randomized, everything timestamp-derived is
/// shared across the whole ensemble. One ensemble pass (AnalyzeAll;
/// Analyze is AnalyzeAll of one motif) runs in three steps:
///
///   1. Per motif, on the real graph: the structural matches (phase P1,
///      once — they are flow-independent) and the timestamp-only
///      enumeration skeleton (core/skeleton.h), recorded through one
///      window-list reader per motif.
///   2. Randomized graph i is draw i of the keyed null model
///      (util/keyed_permutation.h): slot p carries the real flow of slot
///      π_i(p), π_i a pseudo-random bijection keyed by (seed, i). A draw
///      depends on nothing else, so graph i is the same for every pool
///      size, every motif set and every task order — as in the paper,
///      one set of randomized datasets serves every motif.
///   3. Each ensemble task (task 0 = the real graph) evaluates its own
///      draw; the pool's workers claim tasks in order from a shared
///      cursor, each with its own scratch. The replay route fills a
///      FlowPrefixArena only on the prefix blocks the set's recorded
///      skeletons read (the union of their PrefixExtents), evaluating
///      π_i on just those slots, and every recorded motif is a dense
///      replay kernel pass over it. A motif whose recording was skipped
///      or exceeded the trace budget is counted instead by the counting
///      recursion (InstanceCounter) over its matches on a
///      TimeSeriesGraph::WithFlows view of the full draw. Its window
///      lists depend only on timestamps, which every view shares, so
///      the counting readers of all tasks sit in front of one
///      ensemble-scoped SharedWindowCache tier: each (first, last) list
///      is computed once per ensemble, not once per graph.
///
/// Counts are integers computed per task, so every report is
/// byte-identical for any thread count, any motif set and any set order
/// (the significance equivalence tests lock this against a retained
/// deep-copying reference). At most pool-width arenas (and, on the
/// counting route, full flow vectors) are resident at a time.
class SignificanceAnalyzer {
 public:
  struct Options {
    /// Number of randomized graphs (the paper uses 20).
    int num_random_graphs = 20;

    /// Seed for the flow permutations; the analysis is deterministic
    /// given the seed. Graph i of the ensemble is
    /// graph.WithPermutedFlows(seed, i).
    uint64_t seed = 1;

    /// The delta / phi query parameters.
    Timestamp delta = 0;
    Flow phi = 0.0;

    /// Optional worker pool (not owned). When set, phase P1 and the
    /// ensemble tasks run on it, each task drawing its own keyed
    /// permutation, so the report is byte-identical for any thread
    /// count.
    ThreadPool* pool = nullptr;

    /// Trace budget handed to EnumerationSkeleton::Record. A motif whose
    /// trace would exceed it is counted by the counting recursion on
    /// every graph instead; 0 records no skeleton at all.
    size_t max_skeleton_edges = EnumerationSkeleton::kDefaultMaxEdges;

    /// Optional query lifecycle control (not owned), checked once per
    /// ensemble task (site "sig.task"), before any motif of the task is
    /// counted. On stop every report covers the same contiguous prefix
    /// of completed tasks — identical to a clean run with that many
    /// random graphs, since graph i is keyed on (seed, i) alone.
    QueryControl* control = nullptr;
  };

  struct MotifReport {
    std::string motif_name;
    int64_t real_count = 0;
    std::vector<double> random_counts;  // one per randomized graph
    SampleSummary random_summary;       // box-plot stats (Fig. 14)
    double z_score = 0.0;
    double p_value = 0.0;               // empirical p-value

    /// Execution footprint of skeleton replay: whether this motif was
    /// replayed (vs counted by the recursion on every graph), the
    /// recorded trace size, the wall seconds spent recording this
    /// motif's skeleton, and the wall seconds of the shared ensemble
    /// pass — the tasks' draws, arena fills and the counting of every
    /// motif of the set, so AnalyzeAll reports the same replay_seconds
    /// for each replayed motif. All zero when the motif was not
    /// replayed.
    bool used_skeleton_replay = false;
    int64_t skeleton_edges = 0;
    double record_seconds = 0.0;
    double replay_seconds = 0.0;

    /// Lifecycle outcome (DESIGN.md Sec. 10). When not complete(), the
    /// report covers graphs_completed ensemble tasks (task 0 = real
    /// graph): real_count is valid iff graphs_completed >= 1,
    /// random_counts holds graphs_completed - 1 entries, and the
    /// z/p statistics are computed over that prefix (zero when no
    /// random count completed).
    Termination termination;
    int64_t graphs_completed = 0;
  };

  SignificanceAnalyzer(const TimeSeriesGraph& graph, const Options& options);
  // The analyzer keeps a reference to the graph: temporaries would dangle.
  SignificanceAnalyzer(TimeSeriesGraph&&, const Options&) = delete;

  /// Analyzes one motif: AnalyzeAll({motif})[0].
  MotifReport Analyze(const Motif& motif) const;

  /// Analyzes a set of motifs against ONE permutation ensemble — the
  /// paper's setup — in one pass: each task draws its permutation once
  /// and counts every motif on it. Each report is identical to the
  /// corresponding single-motif Analyze call regardless of the set's
  /// composition or order.
  std::vector<MotifReport> AnalyzeAll(const std::vector<Motif>& motifs) const;

 private:
  /// Per-motif flow-independent setup shared by all N+1 counting tasks:
  /// the real graph's structural matches and, unless recording was
  /// skipped or bypassed, the recorded skeleton.
  struct PreparedMotif {
    MatchList matches;
    EnumerationSkeleton skeleton;
    double record_seconds = 0.0;
  };

  PreparedMotif Prepare(const Motif& motif) const;

  /// Instance count of `motif` on one graph of the ensemble by the
  /// counting recursion over the prepared matches — the route for
  /// motifs without a recorded skeleton. `tier` is the ensemble's
  /// window-list tier, read behind this call's own reader.
  int64_t CountOn(const TimeSeriesGraph& target, const Motif& motif,
                  const MatchList& matches, SharedWindowCache* tier) const;

  /// Summary statistics over the first `tasks_completed` per-task
  /// counts (index 0 = real). Fills graphs_completed and, when the
  /// prefix is empty or partial, degrades gracefully (no stats over
  /// tasks that never ran); the caller attaches the Termination.
  MotifReport BuildReport(const Motif& motif,
                          const std::vector<int64_t>& counts,
                          int64_t tasks_completed) const;

  const TimeSeriesGraph& graph_;
  Options options_;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_CORE_SIGNIFICANCE_H_
