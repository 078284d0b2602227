#include "core/significance.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <set>
#include <utility>

#include "core/counter.h"
#include "core/structural_match.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/timer.h"

namespace flowmotif {

namespace {

/// Capacity of the ensemble tier behind the counting route, in window
/// lists. Each entry is read by all N+1 graphs of the ensemble and by
/// every counted motif of the set. The tier is built only when every
/// (first, last) pair of the counted motifs fits: the counting tasks
/// walk the same pair sequence, so a tier smaller than that sequence
/// would rotate out each list before the next task reads it and serve
/// nothing while paying for every insert.
constexpr size_t kEnsembleTierEntries = 4096;

using SeriesPair = std::pair<const EdgeSeries*, const EdgeSeries*>;

/// Adds the (first, last) series pairs of `motif`'s matches — the keys
/// of its window lists — to `pairs`, stopping once `pairs` holds more
/// than `limit`. Returns whether it stayed within the limit.
bool CollectSeriesPairs(const TimeSeriesGraph& graph, const Motif& motif,
                        const MatchList& matches, size_t limit,
                        std::set<SeriesPair>* pairs) {
  const auto [first_src, first_dst] = motif.edge(0);
  const auto [last_src, last_dst] = motif.edge(motif.num_edges() - 1);
  SeriesPair previous{nullptr, nullptr};
  for (size_t i = 0; i < matches.size(); ++i) {
    const MatchRef binding = matches[i];
    const SeriesPair pair{
        graph.FindSeries(binding[static_cast<size_t>(first_src)],
                         binding[static_cast<size_t>(first_dst)]),
        graph.FindSeries(binding[static_cast<size_t>(last_src)],
                         binding[static_cast<size_t>(last_dst)])};
    // Runs of matches share a pair: skip the set lookup inside a run.
    if (pair == previous) continue;
    previous = pair;
    pairs->insert(pair);
    if (pairs->size() > limit) return false;
  }
  return true;
}

/// Longest contiguous completed-task prefix — the only part of a
/// stopped ensemble the reports may use: parallel tasks beyond the
/// first never-ran task completed out of canonical order.
int64_t DonePrefix(const std::vector<uint8_t>& done) {
  int64_t prefix = 0;
  while (prefix < static_cast<int64_t>(done.size()) &&
         done[static_cast<size_t>(prefix)] != 0) {
    ++prefix;
  }
  return prefix;
}

}  // namespace

SignificanceAnalyzer::SignificanceAnalyzer(const TimeSeriesGraph& graph,
                                           const Options& options)
    : graph_(graph), options_(options) {
  FLOWMOTIF_CHECK_GT(options.num_random_graphs, 0);
}

SignificanceAnalyzer::PreparedMotif SignificanceAnalyzer::Prepare(
    const Motif& motif) const {
  PreparedMotif prepared;
  // Structural matches are flow-independent: compute once on the real
  // graph and reuse on every permutation (Sec. 6.3 observes that all
  // structural matches of G also appear in Gr). The parallel work-unit
  // path merges deterministically, so the list is identical for any
  // pool size.
  prepared.matches =
      StructuralMatcher(graph_, motif).FindMatchList(options_.pool);
  if (options_.max_skeleton_edges == 0) return prepared;

  // The recording consults no flows, and draws are keyed on (seed,
  // task), so a bypass (trace budget) leaves the motif to the counting
  // route over the very same randomized graphs.
  EnumerationSkeleton::Options sk_options;
  sk_options.max_edges = options_.max_skeleton_edges;
  sk_options.query_control = options_.control;
  WallTimer record_timer;
  if (prepared.skeleton.Record(graph_, motif, options_.delta,
                               prepared.matches, /*tier=*/nullptr,
                               sk_options)) {
    prepared.record_seconds = record_timer.ElapsedSeconds();
  }
  return prepared;
}

int64_t SignificanceAnalyzer::CountOn(const TimeSeriesGraph& target,
                                      const Motif& motif,
                                      const MatchList& matches,
                                      SharedWindowCache* tier) const {
  const InstanceCounter counter(target, motif, options_.delta, options_.phi);
  WindowListMru reader(options_.delta, tier, options_.control);
  int64_t count = 0;
  for (size_t i = 0; i < matches.size(); ++i) {
    count += counter.CountMatch(matches[i], nullptr, &reader);
  }
  return count;
}

SignificanceAnalyzer::MotifReport SignificanceAnalyzer::BuildReport(
    const Motif& motif, const std::vector<int64_t>& counts,
    int64_t tasks_completed) const {
  MotifReport report;
  report.motif_name = motif.name();
  report.graphs_completed = tasks_completed;
  if (tasks_completed < 1) return report;  // not even the real count ran
  report.real_count = counts[0];
  report.random_counts.reserve(static_cast<size_t>(tasks_completed - 1));
  for (int64_t i = 1; i < tasks_completed; ++i) {
    report.random_counts.push_back(
        static_cast<double>(counts[static_cast<size_t>(i)]));
  }
  if (report.random_counts.empty()) return report;  // stats undefined
  report.random_summary = Summarize(report.random_counts);
  report.z_score =
      ZScore(static_cast<double>(report.real_count), report.random_counts);
  report.p_value = EmpiricalPValue(static_cast<double>(report.real_count),
                                   report.random_counts);
  return report;
}

SignificanceAnalyzer::MotifReport SignificanceAnalyzer::Analyze(
    const Motif& motif) const {
  return AnalyzeAll({motif})[0];
}

std::vector<SignificanceAnalyzer::MotifReport> SignificanceAnalyzer::AnalyzeAll(
    const std::vector<Motif>& motifs) const {
  if (motifs.empty()) return {};
  QueryControl* const control = options_.control;

  // Step 1: matches and skeleton per motif, on the real graph.
  const size_t num_motifs = motifs.size();
  std::vector<PreparedMotif> prepared;
  prepared.reserve(num_motifs);
  bool any_replayed = false;
  bool any_counted = false;
  for (const Motif& motif : motifs) {
    prepared.push_back(Prepare(motif));
    if (prepared.back().skeleton.recorded()) {
      any_replayed = true;
    } else {
      any_counted = true;
    }
  }

  // Every graph of the ensemble shares the real graph's timestamp
  // storage and the tier keys on that identity, so a list one counting
  // task computes is a hit for every other task and counted motif.
  // Recording reads no tier: there a tier served at most 9.8% of the
  // reader's misses (DESIGN.md Sec. 6).
  bool pairs_fit = any_counted;
  std::set<SeriesPair> pairs;
  for (size_t m = 0; m < num_motifs && pairs_fit; ++m) {
    if (prepared[m].skeleton.recorded()) continue;
    pairs_fit = CollectSeriesPairs(graph_, motifs[m], prepared[m].matches,
                                   kEnsembleTierEntries, &pairs);
  }
  std::optional<SharedWindowCache> ensemble_tier;
  if (pairs_fit) ensemble_tier.emplace(options_.delta, kEnsembleTierEntries);
  SharedWindowCache* const tier =
      ensemble_tier.has_value() ? &*ensemble_tier : nullptr;

  // Steps 2 and 3: the N+1 ensemble tasks. Task t >= 1 counts on draw
  // t of the keyed null model, which it evaluates itself: a draw
  // depends only on (seed, t), so the counts are the same for any pool
  // size, motif set or task order. The replay route fills only the
  // prefix blocks the recorded motifs read.
  const int64_t num_tasks = options_.num_random_graphs + 1;  // 0 = real
  std::vector<PrefixExtent> extents;
  for (const PreparedMotif& p : prepared) {
    if (p.skeleton.recorded()) {
      UnionPrefixExtents(p.skeleton.extents(), &extents);
    }
  }
  const FlowPermutationStream draws(graph_, options_.seed);

  // One lane per worker, each claiming tasks in order from a shared
  // cursor with its own scratch (arena, one replayer per recorded
  // motif, the counting route's flow vector), so at most pool-width of
  // each exist and a lane's later tasks reuse its allocations.
  struct LaneScratch {
    FlowPrefixArena arena;
    std::vector<std::optional<SkeletonReplayer>> replayers;  // per motif
    std::vector<Flow> flows;
  };
  const int64_t num_lanes =
      options_.pool != nullptr ? std::max(1, options_.pool->num_threads()) : 1;
  std::vector<LaneScratch> lanes(static_cast<size_t>(num_lanes));
  for (LaneScratch& lane : lanes) {
    lane.replayers.resize(num_motifs);
    for (size_t m = 0; m < num_motifs; ++m) {
      if (prepared[m].skeleton.recorded()) {
        lane.replayers[m].emplace(&prepared[m].skeleton);
      }
    }
  }
  std::vector<std::vector<int64_t>> counts(
      num_motifs, std::vector<int64_t>(static_cast<size_t>(num_tasks), 0));
  std::vector<uint8_t> done(static_cast<size_t>(num_tasks), 0);

  WallTimer pass_timer;
  const auto run_task = [&](int64_t task, LaneScratch* s) {
    if (control != nullptr && control->CheckAtBoundary(failpoint::kSigTask)) {
      return;
    }
    const auto draw = static_cast<uint64_t>(task);
    if (any_replayed) {
      if (task == 0) {
        s->arena.FillFromGraph(graph_, extents);
      } else {
        s->arena.FillFromDraw(graph_, draws, draw, extents);
      }
    }
    // The counting route needs an actual graph: the flow view of the
    // same draw, sharing the real graph's timestamps.
    std::optional<TimeSeriesGraph> view;
    if (any_counted && task != 0) {
      draws.DrawInto(draw, &s->flows);
      view.emplace(graph_.WithFlows(s->flows));
    }
    const TimeSeriesGraph& target = view.has_value() ? *view : graph_;
    for (size_t m = 0; m < num_motifs; ++m) {
      std::optional<SkeletonReplayer>& replayer = s->replayers[m];
      counts[m][static_cast<size_t>(task)] =
          replayer.has_value()
              ? replayer->Count(s->arena, options_.phi)
              : CountOn(target, motifs[m], prepared[m].matches, tier);
    }
    done[static_cast<size_t>(task)] = 1;
  };
  std::atomic<int64_t> next_task{0};
  const auto run_lane = [&](int64_t lane) {
    for (int64_t task = next_task++; task < num_tasks; task = next_task++) {
      run_task(task, &lanes[static_cast<size_t>(lane)]);
    }
  };
  if (options_.pool != nullptr) {
    options_.pool->ParallelFor(num_lanes, run_lane);
  } else {
    run_lane(0);
  }
  const double pass_seconds = pass_timer.ElapsedSeconds();
  const int64_t completed = DonePrefix(done);

  std::vector<MotifReport> reports;
  reports.reserve(num_motifs);
  for (size_t m = 0; m < num_motifs; ++m) {
    MotifReport report = BuildReport(motifs[m], counts[m], completed);
    const EnumerationSkeleton& skeleton = prepared[m].skeleton;
    if (skeleton.recorded()) {
      report.used_skeleton_replay = true;
      report.skeleton_edges = static_cast<int64_t>(skeleton.num_edges());
      report.record_seconds = prepared[m].record_seconds;
      report.replay_seconds = pass_seconds;
    }
    if (control != nullptr) report.termination = control->Finish(completed);
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace flowmotif
