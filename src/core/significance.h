#ifndef FLOWMOTIF_CORE_SIGNIFICANCE_H_
#define FLOWMOTIF_CORE_SIGNIFICANCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/enumerator.h"
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
/// Because only flows are randomized, the randomized graphs are
/// *flow-permutation views* (TimeSeriesGraph::WithPermutedFlows): they
/// share the real graph's timestamp and topology storage and own only
/// permuted flow arrays — a view costs flow + prefix arrays, not a
/// graph copy (and Analyze keeps at most one pool-width wave of views
/// resident; AnalyzeAll holds all N for the duration of the set).
/// Everything timestamp-derived is shared across the whole ensemble:
/// structural matches are computed once (reuse_matches), and one
/// cross-graph SharedWindowCache serves all N+1 graphs — window lists
/// are computed once (usually on the real graph) and hit N times, for
/// every motif shape, since the cache keys on timestamp-storage
/// identity.
///
/// On top of that sharing, the default execution path goes further
/// (Options::skeleton_replay): the *entire* timestamp-only enumeration
/// — cursor slides, domination probes, recursion shape — is recorded
/// once on the real graph as a flat skeleton trace (core/skeleton.h),
/// and each of the N+1 counts is a dense replay kernel over that trace
/// against the graph's flow prefix sums. Permutations are drawn
/// straight into flat prefix arenas (FlowPermutationStream), so no
/// graph views are constructed at all; the PR 5 view-based enumeration
/// remains as the fallback (and as the reference the equivalence tests
/// compare against).
class SignificanceAnalyzer {
 public:
  struct Options {
    /// Number of randomized graphs (the paper uses 20).
    int num_random_graphs = 20;

    /// Seed for the flow permutations; the analysis is deterministic
    /// given the seed.
    uint64_t seed = 1;

    /// The delta / phi query parameters.
    Timestamp delta = 0;
    Flow phi = 0.0;

    /// Structural matches do not depend on flows, so they are identical
    /// across all randomized graphs; when true they are computed once on
    /// the real graph and re-used, which changes no counts (verified by
    /// tests) and removes the redundant P1 work.
    bool reuse_matches = true;

    /// Optional worker pool (not owned). When set, the per-graph counts
    /// — the real graph plus every randomized one — run as parallel
    /// tasks. The randomized views are always generated serially from
    /// the single seeded RNG stream before any counting starts, so view
    /// i is the same graph for every pool size (and for the serial run)
    /// and the report is byte-identical for any thread count.
    ThreadPool* pool = nullptr;

    /// Record-once / replay-many (core/skeleton.h): record the
    /// timestamp-only enumeration skeleton once on the real graph and
    /// replay it against every flow permutation as a dense kernel pass,
    /// instead of running N+1 full enumerations. Counts are identical
    /// either way (the equivalence tests lock this in); disable to
    /// force the per-graph enumeration path. When recording is
    /// bypassed (trace budget exceeded, see max_skeleton_edges), the
    /// analyzer falls back to that path on its own.
    bool skeleton_replay = true;

    /// Trace budget handed to EnumerationSkeleton::Record; recordings
    /// that would exceed it fall back to per-graph enumeration.
    size_t max_skeleton_edges = EnumerationSkeleton::kDefaultMaxEdges;

    /// Optional query lifecycle control (not owned), checked once per
    /// ensemble task (site "sig.task") on every counting path. On stop
    /// the report covers the contiguous prefix of completed tasks —
    /// identical to a clean run with that many random graphs, since
    /// permutations are drawn serially from the seed.
    QueryControl* control = nullptr;
  };

  struct MotifReport {
    std::string motif_name;
    int64_t real_count = 0;
    std::vector<double> random_counts;  // one per randomized graph
    SampleSummary random_summary;       // box-plot stats (Fig. 14)
    double z_score = 0.0;
    double p_value = 0.0;               // empirical p-value

    /// Execution footprint of the skeleton-replay path: whether this
    /// report came from one recording + N+1 replays (vs N+1 full
    /// enumerations), the recorded trace size, and the wall seconds
    /// spent recording vs replaying the whole ensemble. All zero when
    /// the enumeration path ran.
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

  /// Analyzes one motif with one cross-graph window cache warm for all
  /// N+1 graphs. Views are drawn in waves of pool-width (1 when
  /// serial), so at most one wave of flow arrays is resident at a time
  /// — the cache outlives the waves, so later waves still hit every
  /// window list already built.
  MotifReport Analyze(const Motif& motif) const;

  /// Analyzes a set of motifs against ONE shared permutation ensemble —
  /// the paper's setup (one set of randomized datasets serves every
  /// motif) — and one shared window cache, holding all N views (flow
  /// arrays only) for the duration. The ensemble is drawn from the seed
  /// exactly as Analyze draws it, so each report is identical to the
  /// corresponding single-motif Analyze call regardless of the set's
  /// composition or order.
  std::vector<MotifReport> AnalyzeAll(const std::vector<Motif>& motifs) const;

 private:
  /// Per-motif flow-independent setup shared by all N+1 counting tasks:
  /// enumeration options bound to the cross-graph cache, plus the
  /// structural matches of the real graph when reuse_matches is set.
  struct PreparedMotif {
    EnumerationOptions enum_options;
    MatchList matches;
  };

  /// The N flow-permutation views, generated serially from Rng(seed).
  std::vector<TimeSeriesGraph> GeneratePermutedViews() const;

  /// The same N permutations as flat pair-order flow vectors — the
  /// replay path's ensemble. FlowPermutationStream consumes the RNG
  /// stream exactly as GeneratePermutedViews does, so vector i carries
  /// the flows of view i.
  std::vector<std::vector<Flow>> GeneratePermutedFlows() const;

  PreparedMotif Prepare(const Motif& motif, SharedWindowCache* cache) const;

  /// Records the motif's skeleton on the real graph (computing matches
  /// first when reuse_matches is off). False = bypassed; caller falls
  /// back to per-graph enumeration.
  bool RecordSkeleton(const Motif& motif, const PreparedMotif& prepared,
                      SharedWindowCache* cache,
                      EnumerationSkeleton* skeleton) const;

  /// Replays the skeleton against the real graph (task 0) and every
  /// permutation of a pre-drawn ensemble, one task per graph on the
  /// pool when present. Each task fills a private arena and runs the
  /// fused count kernel, so counts are integers summed per task —
  /// byte-identical for any thread count. AnalyzeAll's path: the
  /// materialized ensemble is drawn once and shared by every motif.
  /// Returns the contiguous prefix of tasks completed (== counts size
  /// unless Options::control stopped the run).
  int64_t ReplayEnsemble(const EnumerationSkeleton& skeleton,
                         const std::vector<std::vector<Flow>>& permuted_flows,
                         std::vector<int64_t>* counts) const;

  /// Analyze's path: the same counts without ever materializing the
  /// ensemble. Permutations are drawn lazily from the seeded stream
  /// into per-slot reused buffers (serially, so permutation i is
  /// identical for any pool size), one wave of pool-width at a time;
  /// arenas and replayers persist across waves, so the steady state
  /// allocates nothing. Returns the contiguous prefix of tasks
  /// completed, as ReplayEnsemble does.
  int64_t ReplayEnsembleStreaming(const EnumerationSkeleton& skeleton,
                                  std::vector<int64_t>* counts) const;

  /// Instance count of `motif` on one graph of the ensemble.
  int64_t CountOn(const TimeSeriesGraph& target, const Motif& motif,
                  const PreparedMotif& prepared) const;

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
