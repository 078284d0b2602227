// Byte-identical equivalence of the significance ensemble pass
// (permutations drawn once from the seeded stream, skeleton replay or
// the counting recursion per motif) against a retained pre-refactor reference: deep-copying
// WithPermutedFlows (fresh timestamp/topology storage per randomized
// graph) plus per-graph enumeration with no shared cache. Real counts,
// random counts, z-scores, and p-values must match exactly across ~50
// seeded random graphs, every catalog motif, a reference that runs P1
// once or per graph, engine pool sizes {1, 2, 4, 8}, motif sets that
// mix replayed and counted motifs, and stopped passes.
#include "core/significance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/enumerator.h"
#include "core/match_list.h"
#include "core/motif_catalog.h"
#include "core/structural_match.h"
#include "graph/interaction_graph.h"
#include "graph/time_series_graph.h"
#include "test_util.h"
#include "util/cancellation.h"
#include "util/failpoint.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace flowmotif {
namespace {

// ---------------------------------------------------------------------------
// Retained reference: the pre-refactor analyzer, kept verbatim in
// behavior — every randomized graph is a full deep copy with freshly
// owned storage (TimeSeriesGraph::DeepCopy + in-place ReplaceFlows,
// exactly what the copying WithPermutedFlows did), every graph gets a
// fresh enumerator with no injected cache, and the ensemble is redrawn
// from the seed for every motif.
// ---------------------------------------------------------------------------

/// The copying WithPermutedFlows: collect flows in (pair, index) order,
/// shuffle the multiset, write back in the same order — consuming the
/// RNG stream exactly as the view-based implementation does.
TimeSeriesGraph ReferencePermutedCopy(const TimeSeriesGraph& graph,
                                      Rng* rng) {
  std::vector<Flow> all_flows;
  for (const TimeSeriesGraph::PairEdge& pe : graph.pairs()) {
    for (size_t i = 0; i < pe.series.size(); ++i) {
      all_flows.push_back(pe.series.flow(i));
    }
  }
  rng->Shuffle(&all_flows);

  TimeSeriesGraph out = graph.DeepCopy();
  size_t cursor = 0;
  for (int64_t p = 0; p < out.num_pairs(); ++p) {
    // The graph API is read-only; the reference mutates its own deep
    // copy in place through ReplaceFlows, so the const_cast strips only
    // the accessor's constness (the underlying object is non-const).
    const EdgeSeries& series = out.pair(static_cast<size_t>(p)).series;
    std::vector<Flow> new_flows(series.size());
    for (size_t i = 0; i < new_flows.size(); ++i) {
      new_flows[i] = all_flows[cursor++];
    }
    const_cast<EdgeSeries&>(series).ReplaceFlows(new_flows);
  }
  EXPECT_EQ(cursor, all_flows.size());
  return out;
}

/// `reuse_matches` = the reference runs phase P1 once on the real graph
/// and reuses the matches; otherwise every graph runs its own P1.
SignificanceAnalyzer::MotifReport ReferenceAnalyze(
    const TimeSeriesGraph& graph, const Motif& motif,
    const SignificanceAnalyzer::Options& options, bool reuse_matches = true) {
  SignificanceAnalyzer::MotifReport report;
  report.motif_name = motif.name();

  EnumerationOptions enum_options;
  enum_options.delta = options.delta;
  enum_options.phi = options.phi;

  std::vector<MatchBinding> matches;
  if (reuse_matches) {
    const StructuralMatcher matcher(graph, motif);
    matches = matcher.FindAllMatches();
  }

  Rng rng(options.seed);
  const auto count_on = [&](const TimeSeriesGraph& target) {
    FlowMotifEnumerator enumerator(target, motif, enum_options);
    return reuse_matches ? enumerator.RunOnMatches(matches)
                         : enumerator.Run();
  };
  report.real_count = count_on(graph).num_instances;
  for (int i = 0; i < options.num_random_graphs; ++i) {
    const TimeSeriesGraph randomized = ReferencePermutedCopy(graph, &rng);
    report.random_counts.push_back(
        static_cast<double>(count_on(randomized).num_instances));
  }

  report.random_summary = Summarize(report.random_counts);
  report.z_score =
      ZScore(static_cast<double>(report.real_count), report.random_counts);
  report.p_value = EmpiricalPValue(static_cast<double>(report.real_count),
                                   report.random_counts);
  return report;
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

TimeSeriesGraph RandomGraph(uint64_t seed, int num_vertices,
                            int num_interactions, Timestamp time_span) {
  Rng rng(seed);
  InteractionGraph g;
  for (int i = 0; i < num_interactions; ++i) {
    const auto src = static_cast<VertexId>(
        rng.NextBounded(static_cast<uint64_t>(num_vertices)));
    auto dst = static_cast<VertexId>(
        rng.NextBounded(static_cast<uint64_t>(num_vertices)));
    if (dst == src) dst = (dst + 1) % num_vertices;
    const auto t = static_cast<Timestamp>(
        rng.NextBounded(static_cast<uint64_t>(time_span)));
    const Flow f = 1.0 + static_cast<Flow>(rng.NextBounded(5));
    const Status s = g.AddEdge(src, dst, t, f);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return TimeSeriesGraph::Build(g);
}

void ExpectReportsEqual(const SignificanceAnalyzer::MotifReport& expected,
                        const SignificanceAnalyzer::MotifReport& actual,
                        const std::string& context) {
  EXPECT_EQ(expected.motif_name, actual.motif_name) << context;
  EXPECT_EQ(expected.real_count, actual.real_count) << context;
  EXPECT_EQ(expected.random_counts, actual.random_counts) << context;
  EXPECT_EQ(expected.z_score, actual.z_score) << context;
  EXPECT_EQ(expected.p_value, actual.p_value) << context;
  EXPECT_EQ(expected.random_summary.mean, actual.random_summary.mean)
      << context;
  EXPECT_EQ(expected.random_summary.stddev, actual.random_summary.stddev)
      << context;
}

SignificanceAnalyzer::Options BaseOptions(uint64_t seed) {
  SignificanceAnalyzer::Options options;
  options.num_random_graphs = 4;
  options.seed = seed * 31 + 5;
  options.delta = 8;
  options.phi = 3.0;
  return options;
}

// Every catalog motif on ~50 seeded random graphs, serial analyzer: the
// ensemble pass must reproduce the copying reference bit for bit.
TEST(SignificanceEquivalenceTest, CatalogMotifsOnSeededGraphs) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const TimeSeriesGraph graph = RandomGraph(seed, 6, 60, 40);
    const SignificanceAnalyzer::Options options = BaseOptions(seed);
    const SignificanceAnalyzer analyzer(graph, options);
    for (const Motif& motif : MotifCatalog::All()) {
      ExpectReportsEqual(ReferenceAnalyze(graph, motif, options),
                         analyzer.Analyze(motif),
                         "seed=" + std::to_string(seed) +
                             " motif=" + motif.name());
    }
  }
}

// Reference P1 {once, per graph} x engine pools {1, 2, 4, 8}: the
// parallel pass must equal the serial copying reference for interior
// and non-interior motifs alike.
TEST(SignificanceEquivalenceTest, ThreadAndReuseSweep) {
  const std::vector<Motif> motifs = {*MotifCatalog::ByName("M(3,3)"),
                                     *MotifCatalog::ByName("M(4,3)"),
                                     *MotifCatalog::ByName("M(5,4)"),
                                     *MotifCatalog::ByName("M(4,4)C")};
  for (uint64_t seed : {3u, 11u, 27u}) {
    const TimeSeriesGraph graph = RandomGraph(seed, 6, 70, 30);
    for (const bool reuse : {true, false}) {
      SignificanceAnalyzer::Options options = BaseOptions(seed);
      for (const Motif& motif : motifs) {
        const SignificanceAnalyzer::MotifReport expected =
            ReferenceAnalyze(graph, motif, options, reuse);
        for (const int threads : {1, 2, 4, 8}) {
          ThreadPool pool(threads);
          options.pool = &pool;
          const SignificanceAnalyzer analyzer(graph, options);
          ExpectReportsEqual(expected, analyzer.Analyze(motif),
                             "seed=" + std::to_string(seed) +
                                 " motif=" + motif.name() +
                                 " reuse=" + std::to_string(reuse) +
                                 " threads=" + std::to_string(threads));
        }
        options.pool = nullptr;
      }
    }
  }
}

// AnalyzeAll shares one ensemble and one cache across motifs; each
// report must still equal the single-motif Analyze (and hence the
// reference), in any set order.
TEST(SignificanceEquivalenceTest, AnalyzeAllMatchesPerMotifAnalyze) {
  const TimeSeriesGraph graph = RandomGraph(17, 6, 80, 40);
  const SignificanceAnalyzer::Options options = BaseOptions(17);
  const SignificanceAnalyzer analyzer(graph, options);

  std::vector<Motif> motifs(MotifCatalog::All());
  const std::vector<SignificanceAnalyzer::MotifReport> forward =
      analyzer.AnalyzeAll(motifs);
  ASSERT_EQ(forward.size(), motifs.size());
  for (size_t i = 0; i < motifs.size(); ++i) {
    ExpectReportsEqual(ReferenceAnalyze(graph, motifs[i], options),
                       forward[i], "forward " + motifs[i].name());
  }

  std::vector<Motif> reversed(motifs.rbegin(), motifs.rend());
  const std::vector<SignificanceAnalyzer::MotifReport> backward =
      analyzer.AnalyzeAll(reversed);
  ASSERT_EQ(backward.size(), motifs.size());
  for (size_t i = 0; i < motifs.size(); ++i) {
    ExpectReportsEqual(forward[i], backward[motifs.size() - 1 - i],
                       "reversed " + motifs[i].name());
  }
}

// The three ways a motif is counted — skeleton replay (default), no
// recording (zero trace budget), and recording bypassed by a tiny trace
// budget — must all equal the copying reference, and the report must
// say which route ran.
TEST(SignificanceEquivalenceTest, ReplayOffAndForcedBypassMatchReference) {
  for (const uint64_t seed : {7u, 19u}) {
    const TimeSeriesGraph graph = RandomGraph(seed, 6, 70, 35);
    const SignificanceAnalyzer::Options base = BaseOptions(seed);
    const Motif motif = *MotifCatalog::ByName("M(4,3)");
    const SignificanceAnalyzer::MotifReport expected =
        ReferenceAnalyze(graph, motif, base);

    SignificanceAnalyzer::Options replay_on = base;
    const SignificanceAnalyzer with_replay(graph, replay_on);
    const SignificanceAnalyzer::MotifReport on_report =
        with_replay.Analyze(motif);
    ExpectReportsEqual(expected, on_report, "replay on");
    EXPECT_TRUE(on_report.used_skeleton_replay);
    EXPECT_GT(on_report.skeleton_edges, 0);

    SignificanceAnalyzer::Options replay_off = base;
    replay_off.max_skeleton_edges = 0;
    const SignificanceAnalyzer without_replay(graph, replay_off);
    const SignificanceAnalyzer::MotifReport off_report =
        without_replay.Analyze(motif);
    ExpectReportsEqual(expected, off_report, "replay off");
    EXPECT_FALSE(off_report.used_skeleton_replay);
    EXPECT_EQ(off_report.skeleton_edges, 0);

    // Budget bypass: recording consults no RNG, so falling back after a
    // bypassed recording must leave the seeded stream — and the report —
    // exactly as a zero trace budget produces.
    SignificanceAnalyzer::Options bypass = base;
    bypass.max_skeleton_edges = 1;
    const SignificanceAnalyzer bypassed(graph, bypass);
    const SignificanceAnalyzer::MotifReport bypass_report =
        bypassed.Analyze(motif);
    ExpectReportsEqual(expected, bypass_report, "budget bypass");
    EXPECT_FALSE(bypass_report.used_skeleton_replay);

    // AnalyzeAll under a bypass budget counts the motif by the
    // recursion; the report must be unchanged.
    const std::vector<SignificanceAnalyzer::MotifReport> all =
        bypassed.AnalyzeAll({motif});
    ASSERT_EQ(all.size(), 1u);
    ExpectReportsEqual(expected, all[0], "AnalyzeAll budget bypass");
  }
}

// Motifs whose trace sizes straddle the budget: one is replayed, the
// other is counted by the recursion on every graph, both from the same
// permutation draws. Each report must equal the reference and say which
// route ran, in both set orders and for any pool.
TEST(SignificanceEquivalenceTest, AnalyzeAllMixesReplayedAndCountedMotifs) {
  const TimeSeriesGraph graph = RandomGraph(29, 6, 90, 40);
  const SignificanceAnalyzer::Options base = BaseOptions(29);
  Motif small = *MotifCatalog::ByName("M(3,2)");
  Motif large = *MotifCatalog::ByName("M(4,3)");

  // Trace sizes at the default budget; the mixed budget admits exactly
  // the smaller trace.
  const SignificanceAnalyzer unbounded(graph, base);
  std::vector<SignificanceAnalyzer::MotifReport> full =
      unbounded.AnalyzeAll({small, large});
  ASSERT_TRUE(full[0].used_skeleton_replay);
  ASSERT_TRUE(full[1].used_skeleton_replay);
  ASSERT_NE(full[0].skeleton_edges, full[1].skeleton_edges);
  if (full[0].skeleton_edges > full[1].skeleton_edges) {
    std::swap(small, large);
    std::swap(full[0], full[1]);
  }
  ASSERT_GT(full[0].skeleton_edges, 0);

  SignificanceAnalyzer::Options mixed = base;
  mixed.max_skeleton_edges = static_cast<size_t>(full[0].skeleton_edges);
  const SignificanceAnalyzer::MotifReport expected_small =
      ReferenceAnalyze(graph, small, base);
  const SignificanceAnalyzer::MotifReport expected_large =
      ReferenceAnalyze(graph, large, base);
  for (const int threads : {0, 4}) {
    ThreadPool pool(std::max(1, threads));
    mixed.pool = threads > 0 ? &pool : nullptr;
    const SignificanceAnalyzer analyzer(graph, mixed);
    const std::string context = "threads=" + std::to_string(threads);

    const std::vector<SignificanceAnalyzer::MotifReport> forward =
        analyzer.AnalyzeAll({small, large});
    ASSERT_EQ(forward.size(), 2u);
    ExpectReportsEqual(expected_small, forward[0], context + " small");
    ExpectReportsEqual(expected_large, forward[1], context + " large");
    EXPECT_TRUE(forward[0].used_skeleton_replay) << context;
    EXPECT_EQ(forward[0].skeleton_edges, full[0].skeleton_edges) << context;
    EXPECT_FALSE(forward[1].used_skeleton_replay) << context;
    EXPECT_EQ(forward[1].skeleton_edges, 0) << context;

    const std::vector<SignificanceAnalyzer::MotifReport> backward =
        analyzer.AnalyzeAll({large, small});
    ASSERT_EQ(backward.size(), 2u);
    ExpectReportsEqual(expected_large, backward[0], context + " reversed");
    ExpectReportsEqual(expected_small, backward[1], context + " reversed");
    EXPECT_FALSE(backward[0].used_skeleton_replay) << context;
    EXPECT_TRUE(backward[1].used_skeleton_replay) << context;
  }
}

// The counting route reads an ensemble tier only when every distinct
// (first, last) series pair of the counted motifs fits it (4096 lists,
// core/significance.cc); above that its tasks read no tier. Both sides
// must equal the replay route, serially and with a pool.
TEST(SignificanceEquivalenceTest, CountingRouteEqualsReplayAroundTierCapacity) {
  const Motif motif = *MotifCatalog::ByName("M(3,2)");
  for (const int num_vertices : {12, 400}) {
    const TimeSeriesGraph graph =
        RandomGraph(53, num_vertices, 15 * num_vertices, 200);
    // Pin which side of the capacity each graph is on.
    std::vector<std::pair<const EdgeSeries*, const EdgeSeries*>> pairs;
    const MatchList matches = StructuralMatcher(graph, motif).FindMatchList();
    for (size_t i = 0; i < matches.size(); ++i) {
      pairs.emplace_back(graph.FindSeries(matches[i][0], matches[i][1]),
                         graph.FindSeries(matches[i][1], matches[i][2]));
    }
    std::sort(pairs.begin(), pairs.end());
    const size_t num_pairs = static_cast<size_t>(
        std::unique(pairs.begin(), pairs.end()) - pairs.begin());
    if (num_vertices == 12) {
      ASSERT_LE(num_pairs, 4096u);
    } else {
      ASSERT_GT(num_pairs, 4096u);
    }

    SignificanceAnalyzer::Options replayed = BaseOptions(53);
    replayed.delta = 20;
    SignificanceAnalyzer::Options counted = replayed;
    counted.max_skeleton_edges = 0;
    const SignificanceAnalyzer::MotifReport expected =
        SignificanceAnalyzer(graph, replayed).Analyze(motif);
    ASSERT_TRUE(expected.used_skeleton_replay);
    for (const int threads : {0, 4}) {
      ThreadPool pool(std::max(1, threads));
      counted.pool = threads > 0 ? &pool : nullptr;
      const SignificanceAnalyzer::MotifReport report =
          SignificanceAnalyzer(graph, counted).Analyze(motif);
      EXPECT_FALSE(report.used_skeleton_replay);
      ExpectReportsEqual(expected, report,
                         "vertices=" + std::to_string(num_vertices) +
                             " threads=" + std::to_string(threads));
    }
  }
}

// A pass stopped at "sig.task" gives every motif of the set the same
// contiguous task prefix, equal to a clean pass over that many graphs.
// Serially the prefix is exactly the k tasks let through; with a pool
// it is whatever contiguous prefix the wave completed.
TEST(SignificanceEquivalenceTest, StoppedAnalyzeAllCoversOneTaskPrefix) {
  if (!failpoint::kFailpointsCompiledIn) GTEST_SKIP();
  const TimeSeriesGraph graph = RandomGraph(41, 6, 90, 40);
  SignificanceAnalyzer::Options base = BaseOptions(41);
  base.num_random_graphs = 6;
  const std::vector<Motif> motifs = {*MotifCatalog::ByName("M(3,2)"),
                                     *MotifCatalog::ByName("M(4,3)"),
                                     *MotifCatalog::ByName("M(4,4)C")};
  // The second budget admits only the smallest trace of the set, so it
  // mixes replayed and counted motifs.
  int64_t smallest_trace = std::numeric_limits<int64_t>::max();
  for (const SignificanceAnalyzer::MotifReport& report :
       SignificanceAnalyzer(graph, base).AnalyzeAll(motifs)) {
    smallest_trace = std::min(smallest_trace, report.skeleton_edges);
  }
  for (const size_t budget : {EnumerationSkeleton::kDefaultMaxEdges,
                              static_cast<size_t>(smallest_trace)}) {
    for (const int threads : {0, 4}) {
      constexpr int64_t kTasksLetThrough = 3;
      ThreadPool pool(std::max(1, threads));
      QueryControl control(nullptr, QueryDeadline(), WorkBudget());
      SignificanceAnalyzer::Options options = base;
      options.max_skeleton_edges = budget;
      options.pool = threads > 0 ? &pool : nullptr;
      options.control = &control;
      failpoint::Config config;
      config.action = failpoint::Action::kCancel;
      config.hits_before_trigger = kTasksLetThrough;
      failpoint::Arm(failpoint::kSigTask, config);
      const std::vector<SignificanceAnalyzer::MotifReport> stopped =
          SignificanceAnalyzer(graph, options).AnalyzeAll(motifs);
      failpoint::DisarmAll();

      const std::string context = "budget=" + std::to_string(budget) +
                                  " threads=" + std::to_string(threads);
      ASSERT_EQ(stopped.size(), motifs.size());
      if (budget != EnumerationSkeleton::kDefaultMaxEdges) {
        EXPECT_TRUE(stopped[0].used_skeleton_replay ||
                    stopped[1].used_skeleton_replay ||
                    stopped[2].used_skeleton_replay) << context;
        EXPECT_FALSE(stopped[0].used_skeleton_replay &&
                     stopped[1].used_skeleton_replay &&
                     stopped[2].used_skeleton_replay) << context;
      }
      const int64_t prefix = stopped[0].graphs_completed;
      if (threads == 0) {
        EXPECT_EQ(prefix, kTasksLetThrough) << context;
      } else {
        EXPECT_LE(prefix, kTasksLetThrough) << context;
      }
      SignificanceAnalyzer::Options clean = base;
      clean.max_skeleton_edges = budget;
      clean.num_random_graphs = static_cast<int>(prefix) - 1;
      for (size_t m = 0; m < motifs.size(); ++m) {
        const std::string where = context + " " + motifs[m].name();
        EXPECT_EQ(stopped[m].graphs_completed, prefix) << where;
        EXPECT_EQ(stopped[m].termination.code, TerminationCode::kCancelled)
            << where;
        EXPECT_EQ(stopped[m].termination.stopped_at, failpoint::kSigTask)
            << where;
        EXPECT_EQ(stopped[m].termination.work_completed, prefix) << where;
        ASSERT_EQ(stopped[m].random_counts.size(),
                  static_cast<size_t>(std::max<int64_t>(0, prefix - 1)))
            << where;
        if (clean.num_random_graphs > 0) {
          ExpectReportsEqual(
              SignificanceAnalyzer(graph, clean).Analyze(motifs[m]),
              stopped[m], where);
        }
      }
    }
  }
}

// Degenerate shapes: delta = 0 windows, duplicate timestamps, phi = 0
// (permutation cannot change counts at all), single-interaction series.
TEST(SignificanceEquivalenceTest, DegenerateInputs) {
  const TimeSeriesGraph dup = testing_util::MakeGraph({
      {0, 1, 5, 2.0}, {0, 1, 5, 3.0}, {1, 2, 5, 1.0}, {1, 2, 7, 4.0},
      {2, 0, 5, 2.0}, {2, 0, 9, 1.0}, {2, 3, 9, 5.0},
  });
  for (const Timestamp delta : {Timestamp{0}, Timestamp{4}}) {
    for (const Flow phi : {0.0, 2.5}) {
      SignificanceAnalyzer::Options options;
      options.num_random_graphs = 5;
      options.seed = 99;
      options.delta = delta;
      options.phi = phi;
      const SignificanceAnalyzer analyzer(dup, options);
      for (const char* name : {"M(3,2)", "M(3,3)", "M(4,3)"}) {
        const Motif motif = *MotifCatalog::ByName(name);
        ExpectReportsEqual(ReferenceAnalyze(dup, motif, options),
                           analyzer.Analyze(motif),
                           std::string(name) + " delta=" +
                               std::to_string(delta) +
                               " phi=" + std::to_string(phi));
      }
    }
  }
}

}  // namespace
}  // namespace flowmotif
