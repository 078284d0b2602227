// Workload `study`: the paper's Sec. 6.3 / Fig. 9-10 analysis. One
// closed-loop client runs, per catalog motif, one significance query
// (20 flow-permuted graphs) and one delta x phi sweep over the preset
// grid, on a facebook-like graph loaded from an edge file, with 4
// threads.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/motif_catalog.h"
#include "core/skeleton.h"
#include "core/structural_match.h"
#include "core/window_cursor.h"
#include "engine/query_engine.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace flowbench {

using flowmotif::EnumerationSkeleton;
using flowmotif::Flow;
using flowmotif::Motif;
using flowmotif::MotifCatalog;
using flowmotif::QueryEngine;
using flowmotif::QueryMode;
using flowmotif::QueryOptions;
using flowmotif::QueryResult;
using flowmotif::SweepQuery;
using flowmotif::SweepResult;

namespace {

constexpr int kThreads = 4;
constexpr int kRandomGraphs = 20;
// Window-cache capacity the significance analyzer gives its ensemble
// cache; the traced decomposition mirrors it.
constexpr size_t kEnsembleCacheEntries = 4096;
// A run measures at least this many whole rounds (of 20 queries), so the
// tail percentile is planned on 100 samples: p90.
constexpr size_t kMinRounds = 5;

struct Query {
  size_t motif;
  bool significance;  // else a sweep
};

struct Outcome {
  Query query;
  double seconds = 0.0;
  bool complete = false;
  // Significance.
  int64_t real_count = 0;
  std::vector<double> random_counts;
  bool replayed = false;
  // Sweep.
  std::vector<int64_t> cells;
  int64_t replayed_deltas = 0;
  int64_t fallback_cells = 0;
};

}  // namespace

int RunStudy(const RunOptions& options) {
  Report report;
  Checker checker;
  AddContextNotes(options, &report);
  const flowmotif::DatasetPreset& preset =
      flowmotif::GetPreset(flowmotif::DatasetKind::kFacebook);

  LoadedGraph loaded = LoadGraphTimed(options.inputs + "/edges.txt");
  const flowmotif::TimeSeriesGraph& graph = loaded.graph;
  const QueryEngine engine(graph);
  const std::vector<Motif>& motifs = MotifCatalog::All();
  const SweepQuery grid{preset.delta_sweep, preset.phi_sweep};
  const uint64_t permutation_seed = DeriveSeed(options.seed, "permutations:study");

  QueryOptions sig_options;
  sig_options.mode = QueryMode::kSignificance;
  sig_options.delta = preset.default_delta;
  sig_options.phi = preset.default_phi;
  sig_options.num_random_graphs = kRandomGraphs;
  sig_options.seed = permutation_seed;
  sig_options.num_threads = kThreads;
  QueryOptions sweep_options;
  sweep_options.num_threads = kThreads;

  SplitMix64 rng(DeriveSeed(options.seed, "schedule:study"));
  std::vector<Query> round;
  size_t round_pos = 0;
  size_t rounds = 0;
  uint64_t schedule_digest = Fnv1a(&permutation_seed, sizeof(permutation_seed));
  auto next_query = [&]() {
    if (round_pos == round.size()) {
      round.clear();
      for (size_t m = 0; m < motifs.size(); ++m) {
        round.push_back({m, true});
        round.push_back({m, false});
      }
      for (size_t i = round.size(); i > 1; --i) std::swap(round[i - 1], round[rng.Below(i)]);
      round_pos = 0;
      ++rounds;
    }
    const Query q = round[round_pos++];
    schedule_digest = Fnv1a(&q.motif, sizeof(q.motif), schedule_digest);
    schedule_digest = Fnv1a(&q.significance, sizeof(q.significance), schedule_digest);
    return q;
  };

  // Untraced closed loop over whole rounds (see analytic.cc), at least
  // kMinRounds of them.
  std::vector<Outcome> outcomes;
  std::vector<double> latency_ms;
  const auto start = SteadyClock::now();
  while (rounds < kMinRounds || round_pos < round.size() ||
         SecondsSince(start) < options.seconds) {
    const Query q = next_query();
    Outcome o;
    o.query = q;
    const auto t0 = SteadyClock::now();
    if (q.significance) {
      const QueryResult r = engine.Run(motifs[q.motif], sig_options);
      o.seconds = SecondsSince(t0);
      o.complete = r.termination.complete();
      o.real_count = r.significance.real_count;
      o.random_counts = r.significance.random_counts;
      o.replayed = r.significance.used_skeleton_replay;
    } else {
      const SweepResult r = engine.RunSweep(motifs[q.motif], grid, sweep_options);
      o.seconds = SecondsSince(t0);
      o.complete = r.termination.complete();
      o.cells = r.counts;
      o.replayed_deltas = r.num_replayed_deltas;
      o.fallback_cells = r.num_fallback_cells;
    }
    latency_ms.push_back(o.seconds * 1e3);
    outcomes.push_back(std::move(o));
  }
  const double elapsed = SecondsSince(start);
  if (options.plant_wrong) {
    for (Outcome& o : outcomes) {
      if (!o.query.significance && !o.cells.empty()) {
        o.cells[0] += 1;
        break;
      }
    }
  }

  // Checks (untimed): every answer completed; the sweep cell at the
  // preset (delta, phi) equals a kCount run; the significance report's
  // real-graph count equals it too; repeats agree exactly.
  size_t default_delta = 0, default_phi = 0;
  for (size_t d = 0; d < grid.deltas.size(); ++d) {
    if (grid.deltas[d] == preset.default_delta) default_delta = d;
  }
  for (size_t p = 0; p < grid.phis.size(); ++p) {
    if (grid.phis[p] == preset.default_phi) default_phi = p;
  }
  const size_t default_cell = default_delta * grid.phis.size() + default_phi;
  std::map<size_t, int64_t> counts;  // motif -> kCount answer
  std::map<std::pair<size_t, bool>, size_t> first_seen;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    const auto request = static_cast<int64_t>(i);
    checker.Expect("study.completed", o.complete, request);
    if (counts.find(o.query.motif) == counts.end()) {
      QueryOptions count_options = sig_options;
      count_options.mode = QueryMode::kCount;
      counts[o.query.motif] =
          engine.Run(motifs[o.query.motif], count_options).stats.num_instances;
    }
    const int64_t expected = counts[o.query.motif];
    const std::string where = motifs[o.query.motif].name();
    if (o.query.significance) {
      checker.Expect("study.significance_real_eq_count", o.real_count == expected,
                     request,
                     where + ": real " + std::to_string(o.real_count) +
                         " count " + std::to_string(expected));
    } else {
      const int64_t cell = o.cells.size() > default_cell ? o.cells[default_cell] : -1;
      checker.Expect("study.sweep_cell_eq_count", cell == expected, request,
                     where + ": cell " + std::to_string(cell) + " count " +
                         std::to_string(expected));
    }
    const auto key = std::make_pair(o.query.motif, o.query.significance);
    auto seen = first_seen.find(key);
    if (seen == first_seen.end()) {
      first_seen[key] = i;
    } else {
      const Outcome& a = outcomes[seen->second];
      checker.Expect("study.repeat_identical",
                     a.real_count == o.real_count &&
                         a.random_counts == o.random_counts && a.cells == o.cells,
                     request);
    }
  }

  report.Add("setup_s", loaded.setup_s, "s");
  report.Add("queries_per_s", static_cast<double>(outcomes.size()) / elapsed, "1/s");
  AddLatency(&report, "latency_", latency_ms, kMinRounds * 2 * motifs.size());

  if (options.trace) {
    // Traced pass over the same query list. Significance is decomposed
    // into its layers: P1, skeleton Record, flow permutation + arena
    // fill, and replay Count, for the real graph and each permutation.
    Tracer tracer;
    flowmotif::ThreadPool pool(kThreads);
    double sig_queries = 0, sweep_queries = 0, matches = 0, trace_edges = 0,
           lookups = 0, hits = 0, replayed_deltas = 0, fallback_cells = 0;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const Outcome& o = outcomes[i];
      const Motif& motif = motifs[o.query.motif];
      const auto request = static_cast<int64_t>(i);
      ScopedSpan span(&tracer, "query", -1, request);
      if (!o.query.significance) {
        SweepResult r;
        {
          ScopedSpan s(&tracer, "sweep", span.id(), request);
          r = engine.RunSweep(motif, grid, sweep_options);
        }
        checker.Expect("study.traced_sweep_identical", r.counts == o.cells, request);
        sweep_queries += 1;
        replayed_deltas += static_cast<double>(r.num_replayed_deltas);
        fallback_cells += static_cast<double>(r.num_fallback_cells);
        continue;
      }
      sig_queries += 1;
      std::vector<flowmotif::MatchBinding> bindings;
      {
        ScopedSpan s(&tracer, "p1", span.id(), request);
        bindings = flowmotif::StructuralMatcher(graph, motif).FindAllMatchesParallel(&pool);
      }
      matches += static_cast<double>(bindings.size());
      flowmotif::SharedWindowCache cache(sig_options.delta, kEnsembleCacheEntries,
                                         /*cross_graph=*/true);
      EnumerationSkeleton skeleton;
      bool recorded = false;
      {
        ScopedSpan s(&tracer, "sig.record", span.id(), request);
        recorded = skeleton.Record(graph, motif, sig_options.delta, bindings, &cache);
      }
      lookups += static_cast<double>(cache.num_lookups());
      hits += static_cast<double>(cache.num_hits());
      checker.Expect("study.skeleton_recorded", recorded == o.replayed, request);
      if (!recorded) continue;
      trace_edges += static_cast<double>(skeleton.num_edges());
      flowmotif::FlowPrefixArena arena;
      flowmotif::SkeletonReplayer replayer(&skeleton);
      int64_t real = 0;
      {
        ScopedSpan s(&tracer, "sig.permute", span.id(), request);
        arena.FillFromGraph(graph);
      }
      {
        ScopedSpan s(&tracer, "sig.replay", span.id(), request);
        real = replayer.Count(arena, sig_options.phi);
      }
      flowmotif::FlowPermutationStream stream(graph, permutation_seed);
      std::vector<Flow> flows;
      std::vector<double> random_counts;
      for (int g = 0; g < kRandomGraphs; ++g) {
        {
          ScopedSpan s(&tracer, "sig.permute", span.id(), request);
          stream.NextPermutationInto(&flows);
          arena.FillFromFlows(graph, flows);
        }
        ScopedSpan s(&tracer, "sig.replay", span.id(), request);
        random_counts.push_back(static_cast<double>(replayer.Count(arena, sig_options.phi)));
      }
      checker.Expect("study.decomposed_real_eq_report", real == o.real_count, request,
                     std::to_string(real) + " vs " + std::to_string(o.real_count));
      checker.Expect("study.decomposed_random_eq_report",
                     random_counts == o.random_counts, request);
    }
    std::map<std::string, double> self;
    for (const auto& entry : tracer.SelfSecondsByName()) self[entry.first] = entry.second;
    auto per = [](double total, double count) { return count > 0 ? total / count : 0.0; };
    report.Add("graph.load_s", loaded.load_s, "s");
    report.Add("graph.build_s", loaded.build_s, "s");
    report.Add("p1.s", per(self["p1"], sig_queries), "s");
    report.Add("p1.matches", per(matches, sig_queries), "count");
    report.Add("sig.record_s", per(self["sig.record"], sig_queries), "s");
    report.Add("sig.permute_s", per(self["sig.permute"], sig_queries), "s");
    report.Add("sig.replay_s", per(self["sig.replay"], sig_queries), "s");
    report.Add("sig.trace_edges", per(trace_edges, sig_queries), "count");
    report.Add("window.ensemble_hit_rate", per(hits, lookups), "fraction");
    report.Add("sweep.s", per(self["sweep"], sweep_queries), "s");
    report.Add("sweep.replayed_deltas", per(replayed_deltas, sweep_queries), "count");
    report.Add("sweep.fallback_cells", per(fallback_cells, sweep_queries), "count");

    double untraced = 0;
    for (const Outcome& o : outcomes) untraced += o.seconds;
    const double traced = tracer.RootSeconds("query");
    report.Add("trace.overhead_frac", per(traced - untraced, untraced), "fraction");
    char buf[240];
    std::snprintf(buf, sizeof(buf),
                  "untraced %.4f s; traced parts: p1 %.4f + record %.4f + "
                  "permute %.4f + replay %.4f + sweep %.4f + unattributed %.4f "
                  "= %.4f s over %zu queries (the traced ensemble runs serially)",
                  untraced, self["p1"], self["sig.record"], self["sig.permute"],
                  self["sig.replay"], self["sweep"], self["query"], traced,
                  outcomes.size());
    report.Note("trace.accounting", buf);
    if (!options.trace_path.empty() && !tracer.WriteChromeTrace(options.trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", options.trace_path.c_str());
      return 1;
    }
  }

  report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  report.Note("schedule_digest", Hex64(schedule_digest));
  report.Note("graph", graph.DebugString());
  const int64_t attempted = static_cast<int64_t>(outcomes.size());
  const int64_t failed = checker.FailedRequests();
  report.Add("fail_frac", attempted > 0 ? static_cast<double>(failed) / attempted : 1.0,
             "fraction");
  report.Print(checker.all_passed() && attempted > 0, attempted, failed, checker);
  return 0;
}

}  // namespace flowbench
