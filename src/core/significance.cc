#include "core/significance.h"

#include <algorithm>
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

  // The recording consults no flows and no RNG, so a bypass (trace
  // budget) leaves the motif to the counting route with the seeded
  // stream untouched.
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

  // Steps 2 and 3: one pass over the ensemble in waves of pool width.
  // Per-slot state (flow buffer, arena, one replayer per recorded
  // motif) persists across waves, so only the first wave allocates.
  const int64_t num_tasks = options_.num_random_graphs + 1;  // 0 = real
  const int64_t wave_width =
      options_.pool != nullptr
          ? std::max<int64_t>(1, options_.pool->num_threads())
          : 1;
  const auto num_slots = static_cast<size_t>(wave_width);
  std::vector<std::vector<Flow>> slot_flows(num_slots);
  std::vector<FlowPrefixArena> arenas(num_slots);
  std::vector<std::optional<SkeletonReplayer>> replayers(num_slots *
                                                         num_motifs);
  for (size_t slot = 0; slot < num_slots; ++slot) {
    for (size_t m = 0; m < num_motifs; ++m) {
      if (prepared[m].skeleton.recorded()) {
        replayers[slot * num_motifs + m].emplace(&prepared[m].skeleton);
      }
    }
  }
  std::vector<std::vector<int64_t>> counts(
      num_motifs, std::vector<int64_t>(static_cast<size_t>(num_tasks), 0));
  std::vector<uint8_t> done(static_cast<size_t>(num_tasks), 0);
  FlowPermutationStream stream(graph_, options_.seed);

  WallTimer pass_timer;
  int64_t wave_first = 0;
  const auto run_task = [&](int64_t offset) {
    if (control != nullptr && control->CheckAtBoundary(failpoint::kSigTask)) {
      return;
    }
    const int64_t task = wave_first + offset;
    const auto slot = static_cast<size_t>(offset);
    FlowPrefixArena& arena = arenas[slot];
    if (any_replayed) {
      if (task == 0) {
        arena.FillFromGraph(graph_);
      } else {
        arena.FillFromFlows(graph_, slot_flows[slot]);
      }
    }
    // The counting route needs an actual graph: a flow view over the
    // same draw, sharing the real graph's timestamps.
    std::optional<TimeSeriesGraph> view;
    if (any_counted && task != 0) {
      view.emplace(graph_.WithFlows(slot_flows[slot]));
    }
    const TimeSeriesGraph& target = view.has_value() ? *view : graph_;
    for (size_t m = 0; m < num_motifs; ++m) {
      std::optional<SkeletonReplayer>& replayer =
          replayers[slot * num_motifs + m];
      counts[m][static_cast<size_t>(task)] =
          replayer.has_value()
              ? replayer->Count(arena, options_.phi)
              : CountOn(target, motifs[m], prepared[m].matches, tier);
    }
    done[static_cast<size_t>(task)] = 1;
  };
  for (; wave_first < num_tasks; wave_first += wave_width) {
    if (control != nullptr && control->ShouldStop()) break;
    const int64_t wave_limit = std::min(num_tasks, wave_first + wave_width);
    // Draws stay serial and in task order (the seeded stream is one
    // stream), so permutation i is the same for every wave width.
    for (int64_t t = std::max<int64_t>(1, wave_first); t < wave_limit; ++t) {
      stream.NextPermutationInto(&slot_flows[static_cast<size_t>(
          t - wave_first)]);
    }
    if (options_.pool != nullptr) {
      options_.pool->ParallelFor(wave_limit - wave_first, run_task);
    } else {
      run_task(0);  // serial: every wave is one task
    }
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
