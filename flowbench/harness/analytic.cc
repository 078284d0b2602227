// Workload `analytic`: one closed-loop client issuing a seeded sequence
// of every (catalog motif, mode, preset delta) query against a static
// bitcoin-like graph loaded from an edge file, through QueryEngine::Run
// with 4 threads.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/motif_catalog.h"
#include "core/structural_match.h"
#include "engine/query_engine.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace flowbench {

using flowmotif::Motif;
using flowmotif::MotifCatalog;
using flowmotif::QueryEngine;
using flowmotif::QueryMode;
using flowmotif::QueryOptions;
using flowmotif::QueryResult;
using flowmotif::Timestamp;

namespace {

constexpr int kThreads = 4;

using Query = CatalogQuery;

/// What the checks need from one result; full results are not kept
/// (enumerations can hold tens of thousands of instances).
struct Outcome {
  Query query;
  double seconds = 0.0;
  bool complete = false;
  uint64_t fingerprint = 0;
  int64_t num_instances = 0;
  int64_t collected = 0;           // enumerate: instances.size()
  bool has_best = false;           // topk non-empty / top1 found
  double best_flow = 0.0;          // topk[0].flow / top1.max_flow
  int64_t num_batches = 0;
  double cpu_seconds = 0.0;        // phase1 + phase2 (aggregate)
  double wall_seconds = 0.0;
  int threads_used = 1;
};

QueryOptions ParallelOptions(const Query& q, const flowmotif::DatasetPreset& preset) {
  QueryOptions o = OptionsFor(q, preset);
  o.num_threads = kThreads;
  return o;
}

Outcome SummarizeResult(const Query& q, const QueryResult& r, double seconds) {
  Outcome o;
  o.query = q;
  o.seconds = seconds;
  o.complete = r.termination.complete();
  o.fingerprint = ResultFingerprint(r);
  o.num_instances = r.stats.num_instances;
  o.collected = static_cast<int64_t>(r.instances.size());
  if (q.mode == QueryMode::kTopK && !r.topk.empty()) {
    o.has_best = true;
    o.best_flow = r.topk.front().flow;
  } else if (q.mode == QueryMode::kTop1 && r.top1.found) {
    o.has_best = true;
    o.best_flow = r.top1.max_flow;
  }
  o.num_batches = r.num_batches;
  o.cpu_seconds = r.stats.phase1_seconds + r.stats.phase2_seconds;
  o.wall_seconds = r.wall_seconds;
  o.threads_used = r.threads_used;
  return o;
}

/// Cross-mode identities over every (motif, delta) group the run
/// covered: count == enumerate num_instances == instances.size(),
/// top1 flow == topk[0].flow, and repeats of a query agree exactly.
void CheckOutcomes(const std::vector<Outcome>& outcomes, Checker* checker) {
  std::map<std::pair<size_t, Timestamp>, std::map<QueryMode, size_t>> groups;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    const auto request = static_cast<int64_t>(i);
    checker->Expect("analytic.completed", o.complete, request);
    if (o.query.mode == QueryMode::kEnumerate) {
      checker->Expect("analytic.enumerate_size", o.num_instances == o.collected,
                      request,
                      std::to_string(o.num_instances) + " vs " +
                          std::to_string(o.collected));
    }
    auto& group = groups[{o.query.motif, o.query.delta}];
    auto it = group.find(o.query.mode);
    if (it == group.end()) {
      group[o.query.mode] = i;
    } else {
      checker->Expect("analytic.repeat_identical",
                      outcomes[it->second].fingerprint == o.fingerprint, request,
                      MotifCatalog::All()[o.query.motif].name() + " " +
                          ModeName(o.query.mode) + " delta=" +
                          std::to_string(o.query.delta));
    }
  }
  for (const auto& entry : groups) {
    const auto& g = entry.second;
    const std::string where = MotifCatalog::All()[entry.first.first].name() +
                              " delta=" + std::to_string(entry.first.second);
    auto has = [&g](QueryMode m) { return g.find(m) != g.end(); };
    if (has(QueryMode::kCount) && has(QueryMode::kEnumerate)) {
      const Outcome& c = outcomes[g.at(QueryMode::kCount)];
      const Outcome& e = outcomes[g.at(QueryMode::kEnumerate)];
      checker->Expect("analytic.count_eq_enumerate",
                      c.num_instances == e.num_instances,
                      static_cast<int64_t>(g.at(QueryMode::kCount)),
                      where + ": count " + std::to_string(c.num_instances) +
                          " enumerate " + std::to_string(e.num_instances));
    }
    if (has(QueryMode::kTopK) && has(QueryMode::kTop1)) {
      const Outcome& k = outcomes[g.at(QueryMode::kTopK)];
      const Outcome& t = outcomes[g.at(QueryMode::kTop1)];
      char detail[160];
      std::snprintf(detail, sizeof(detail), "%s: topk[0] %.17g top1 %.17g",
                    where.c_str(), k.best_flow, t.best_flow);
      checker->Expect("analytic.top1_eq_topk0",
                      k.has_best == t.has_best && k.best_flow == t.best_flow,
                      static_cast<int64_t>(g.at(QueryMode::kTop1)), detail);
    }
  }
}

}  // namespace

int RunAnalytic(const RunOptions& options) {
  Report report;
  Checker checker;
  AddContextNotes(options, &report);
  const flowmotif::DatasetPreset& preset =
      flowmotif::GetPreset(flowmotif::DatasetKind::kBitcoin);

  LoadedGraph loaded = LoadGraphTimed(options.inputs + "/edges.txt");
  const flowmotif::TimeSeriesGraph& graph = loaded.graph;
  const QueryEngine engine(graph);
  const std::vector<Motif>& motifs = MotifCatalog::All();

  const std::vector<Query> combos = AllCatalogQueries(preset);
  // Rounds of seeded shuffles of every combination: each round covers
  // the whole mix once, and runs measure whole rounds (below).
  SplitMix64 rng(DeriveSeed(options.seed, "schedule:analytic"));
  std::vector<Query> round;
  size_t round_pos = 0;
  uint64_t schedule_digest = 0xcbf29ce484222325ULL;
  auto next_query = [&]() {
    if (round_pos == round.size()) {
      round = combos;
      for (size_t i = round.size(); i > 1; --i) std::swap(round[i - 1], round[rng.Below(i)]);
      round_pos = 0;
    }
    const Query q = round[round_pos++];
    schedule_digest = Fnv1a(&q.motif, sizeof(q.motif), schedule_digest);
    schedule_digest = Fnv1a(&q.mode, sizeof(q.mode), schedule_digest);
    schedule_digest = Fnv1a(&q.delta, sizeof(q.delta), schedule_digest);
    return q;
  };

  // Untraced closed loop: the end-to-end numbers. The round in progress
  // when the time is up is finished, so every run measures whole rounds
  // and its mix does not depend on where the clock stopped.
  std::vector<Outcome> outcomes;
  std::vector<double> latency_ms;
  const auto start = SteadyClock::now();
  while (SecondsSince(start) < options.seconds || round_pos < round.size()) {
    const Query q = next_query();
    const auto t0 = SteadyClock::now();
    const QueryResult r = engine.Run(motifs[q.motif], ParallelOptions(q, preset));
    const double s = SecondsSince(t0);
    outcomes.push_back(SummarizeResult(q, r, s));
    latency_ms.push_back(s * 1e3);
  }
  const double elapsed = SecondsSince(start);
  if (options.plant_wrong && !outcomes.empty()) {
    // Planted wrong answer: the checker must catch it.
    for (Outcome& o : outcomes) {
      if (o.query.mode == QueryMode::kEnumerate) {
        o.num_instances += 1;
        break;
      }
    }
  }
  CheckOutcomes(outcomes, &checker);

  report.Add("setup_s", loaded.setup_s, "s");
  report.Add("queries_per_s", static_cast<double>(outcomes.size()) / elapsed, "1/s");
  // Every run measures at least one whole round, so the tail percentile
  // is planned on one round's sample.
  AddLatency(&report, "latency_", latency_ms, combos.size());
  std::string rounds;
  for (size_t i = 0; i < outcomes.size(); i += combos.size()) {
    double sum = 0;
    for (size_t j = i; j < std::min(outcomes.size(), i + combos.size()); ++j) {
      sum += outcomes[j].seconds;
    }
    rounds += (rounds.empty() ? "" : " ") + std::to_string(sum);
  }
  report.Note("round_seconds", rounds);

  if (options.trace) {
    // Traced pass over the same query list: Run decomposed into phase
    // P1 (StructuralMatcher) and phase P2 (RunOnMatches), one span each.
    Tracer tracer;
    flowmotif::ThreadPool pool(kThreads);
    std::map<QueryMode, double> p2_queries;
    double matches = 0, windows = 0, instances = 0, phi_prunes = 0,
           domination = 0, memo_hits = 0, probes = 0, count_windows = 0,
           count_instances = 0;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const Query& q = outcomes[i].query;
      const Motif& motif = motifs[q.motif];
      const auto request = static_cast<int64_t>(i);
      ScopedSpan span(&tracer, "query", -1, request);
      std::vector<flowmotif::MatchBinding> bindings;
      {
        ScopedSpan p1(&tracer, "p1", span.id(), request);
        bindings = flowmotif::StructuralMatcher(graph, motif)
                       .FindAllMatchesParallel(&pool);
      }
      QueryResult r;
      {
        static const std::map<QueryMode, const char*> kSpan = {
            {QueryMode::kEnumerate, "p2.enumerate"},
            {QueryMode::kCount, "p2.count"},
            {QueryMode::kTopK, "p2.topk"},
            {QueryMode::kTop1, "p2.top1"}};
        ScopedSpan p2(&tracer, kSpan.at(q.mode), span.id(), request);
        r = engine.RunOnMatches(motif, bindings, ParallelOptions(q, preset));
      }
      checker.Expect("analytic.decomposed_eq_run",
                     ResultFingerprint(r) == outcomes[i].fingerprint, request,
                     motif.name() + " " + ModeName(q.mode) + " delta=" +
                         std::to_string(q.delta));
      p2_queries[q.mode] += 1;
      matches += static_cast<double>(bindings.size());
      windows += static_cast<double>(r.stats.num_windows_processed);
      instances += static_cast<double>(r.stats.num_instances);
      phi_prunes += static_cast<double>(r.stats.num_phi_prunes);
      domination += static_cast<double>(r.stats.num_domination_skips);
      if (q.mode == QueryMode::kCount) memo_hits += static_cast<double>(r.memo_hits);
      if (q.mode == QueryMode::kTopK) probes += static_cast<double>(r.stats.num_pruning_probes);
      if (q.mode == QueryMode::kEnumerate || q.mode == QueryMode::kCount) {
        count_windows += static_cast<double>(r.stats.num_windows_processed);
        count_instances += static_cast<double>(r.stats.num_instances);
      }
    }
    const double n = static_cast<double>(outcomes.size());
    std::map<std::string, double> self;
    for (const auto& entry : tracer.SelfSecondsByName()) self[entry.first] = entry.second;
    auto per = [](double total, double count) { return count > 0 ? total / count : 0.0; };

    report.Add("graph.load_s", loaded.load_s, "s");
    report.Add("graph.build_s", loaded.build_s, "s");
    report.Add("p1.s", per(self["p1"], n), "s");
    report.Add("p1.matches", per(matches, n), "count");
    report.Add("p2.enumerate_s", per(self["p2.enumerate"], p2_queries[QueryMode::kEnumerate]), "s");
    report.Add("p2.count_s", per(self["p2.count"], p2_queries[QueryMode::kCount]), "s");
    report.Add("p2.topk_s", per(self["p2.topk"], p2_queries[QueryMode::kTopK]), "s");
    report.Add("p2.top1_s", per(self["p2.top1"], p2_queries[QueryMode::kTop1]), "s");
    report.Add("p2.windows", per(windows, n), "count");
    report.Add("p2.instances", per(instances, n), "count");
    report.Add("p2.phi_prunes", per(phi_prunes, n), "count");
    report.Add("p2.domination_skips", per(domination, n), "count");
    report.Add("p2.yield", per(count_instances, count_windows), "fraction");
    report.Add("count.memo_hits", per(memo_hits, p2_queries[QueryMode::kCount]), "count");
    report.Add("topk.pruning_probes", per(probes, p2_queries[QueryMode::kTopK]), "count");

    // Engine footprint of the untraced Run calls. Parallel efficiency is
    // taken over the streamed path only (count, top-k, top-1), where the
    // phase timers are aggregate CPU seconds across workers.
    double batches = 0, cpu = 0, capacity = 0;
    for (const Outcome& o : outcomes) {
      batches += static_cast<double>(o.num_batches);
      if (o.query.mode != QueryMode::kEnumerate) {
        cpu += o.cpu_seconds;
        capacity += o.wall_seconds * o.threads_used;
      }
    }
    report.Add("engine.batches", per(batches, n), "count");
    report.Add("engine.parallel_eff", per(cpu, capacity), "fraction");

    double untraced = 0;
    for (const Outcome& o : outcomes) untraced += o.seconds;
    const double traced = tracer.RootSeconds("query");
    report.Add("trace.overhead_frac", per(traced - untraced, untraced), "fraction");
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "untraced Run %.4f s; traced parts: p1 %.4f + p2 %.4f + "
                  "unattributed %.4f = %.4f s over %zu queries",
                  untraced, self["p1"],
                  self["p2.enumerate"] + self["p2.count"] + self["p2.topk"] + self["p2.top1"],
                  self["query"], traced, outcomes.size());
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
