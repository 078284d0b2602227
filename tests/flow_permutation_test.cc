// Property tests of the keyed flow permutation and its views:
//  * π_i = KeyedPermutation(n, seed, i) is a bijection of [0, n) for
//    edge-case and random n up to 1e6, in both regimes (exact table and
//    Feistel network), and Evaluate agrees with pointwise evaluation;
//  * its per-slot marginals pass a seeded chi-square bound in both
//    regimes;
//  * a flow-permuted view shares every per-series timestamp array *by
//    identity* (same pointer) and the CSR topology storage;
//  * the graph-wide flow multiset is preserved and per-series sizes are
//    unchanged (the permutation shuffles across all interactions, so
//    per-series multisets may change — the global one may not);
//  * the original graph's flows are untouched;
//  * draws are keyed on (seed, i) only: view i is identical no matter
//    how many views are drawn, in which order, on which worker, which
//    pool size counts them, or which motif is analyzed first;
//  * DeepCopy yields fresh identities with equal content.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/motif_catalog.h"
#include "core/significance.h"
#include "core/skeleton.h"
#include "graph/interaction_graph.h"
#include "graph/time_series_graph.h"
#include "test_util.h"
#include "util/keyed_permutation.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace flowmotif {
namespace {

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
    const Flow f = 1.0 + static_cast<Flow>(rng.NextBounded(7));
    const Status s = g.AddEdge(src, dst, t, f);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return TimeSeriesGraph::Build(g);
}

std::vector<Flow> AllFlows(const TimeSeriesGraph& graph) {
  std::vector<Flow> flows;
  for (const TimeSeriesGraph::PairEdge& pe : graph.pairs()) {
    for (size_t i = 0; i < pe.series.size(); ++i) {
      flows.push_back(pe.series.flow(i));
    }
  }
  return flows;
}

/// Whether KeyedPermutation(n, seed, draw) maps [0, n) onto [0, n),
/// through Evaluate over uneven chunks, with pointwise evaluation
/// agreeing on every slot.
::testing::AssertionResult IsBijection(uint64_t n, uint64_t seed,
                                       uint64_t draw) {
  const KeyedPermutation perm(n, seed, draw);
  if (perm.size() != n) return ::testing::AssertionFailure() << "size";
  std::vector<uint8_t> seen(n, 0);
  std::vector<uint64_t> chunk(997);
  for (uint64_t first = 0; first < n; first += chunk.size()) {
    const uint64_t count = std::min<uint64_t>(chunk.size(), n - first);
    perm.Evaluate(first, count, chunk.data());
    for (uint64_t k = 0; k < count; ++k) {
      const uint64_t v = chunk[k];
      if (v >= n || seen[v] != 0) {
        return ::testing::AssertionFailure()
               << "n=" << n << ": slot " << first + k << " maps to " << v;
      }
      seen[v] = 1;
      if ((first + k) % 61 == 0 && perm(first + k) != v) {
        return ::testing::AssertionFailure()
               << "n=" << n << ": pointwise differs at " << first + k;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(FlowPermutationTest, KeyedPermutationIsABijection) {
  std::vector<uint64_t> sizes = {0, 1, 2, 3};
  for (const int k : {2, 5, 10, 11, 16, 20}) {  // 2^10 = the table bound
    const uint64_t p = uint64_t{1} << k;
    sizes.insert(sizes.end(), {p - 1, p, p + 1});
  }
  Rng rng(314);
  for (int i = 0; i < 6; ++i) sizes.push_back(1 + rng.NextBounded(1000000));
  for (const uint64_t n : sizes) {
    for (const uint64_t draw : {uint64_t{1}, uint64_t{2}, uint64_t{977}}) {
      EXPECT_TRUE(IsBijection(n, /*seed=*/12345, draw));
    }
  }
}

/// Pearson chi-square of the slot -> value table over `num_draws` draws,
/// as a z-score against its (n - 1)^2 degrees of freedom.
double MarginalChiSquareZ(uint64_t n, int num_draws, uint64_t seed) {
  std::vector<int32_t> hits(n * n, 0);
  std::vector<uint64_t> image(n);
  for (int d = 1; d <= num_draws; ++d) {
    KeyedPermutation(n, seed, static_cast<uint64_t>(d))
        .Evaluate(0, n, image.data());
    for (uint64_t p = 0; p < n; ++p) ++hits[p * n + image[p]];
  }
  const double expected = static_cast<double>(num_draws) /
                          static_cast<double>(n);
  double chi = 0.0;
  for (const int32_t h : hits) {
    chi += (h - expected) * (h - expected) / expected;
  }
  const double df = static_cast<double>((n - 1) * (n - 1));
  return (chi - df) / std::sqrt(2.0 * df);
}

TEST(FlowPermutationTest, PerSlotMarginalsPassChiSquare) {
  // Seeded, so the statistic is a fixed number, not a flaky draw; the
  // bound of 4 standard deviations sits above every value measured here
  // (at most 2.3) and far below the bias of a Feistel network on a tiny
  // domain (z = 14.5 at n = 5, which is why small n use the table).
  for (const uint64_t n : {2u, 3u, 5u, 8u, 13u, 40u}) {  // exact table
    EXPECT_LT(MarginalChiSquareZ(n, 4000, 2024), 4.0) << "n=" << n;
  }
  for (const uint64_t n : {1025u, 1500u}) {  // Feistel network
    EXPECT_LT(MarginalChiSquareZ(n, static_cast<int>(5 * n), 2024), 4.0)
        << "n=" << n;
  }
}

TEST(FlowPermutationTest, DrawsOnFourWorkersEqualSerialDraws) {
  const TimeSeriesGraph graph = RandomGraph(12, 9, 3000, 500);
  constexpr int kDraws = 12;
  FlowPermutationStream serial(graph, 77);
  std::vector<std::vector<Flow>> expected(kDraws);
  for (std::vector<Flow>& flows : expected) serial.NextPermutationInto(&flows);

  const FlowPermutationStream keyed(graph, 77);
  std::vector<std::vector<Flow>> pooled(kDraws);
  ThreadPool pool(4);
  // Highest draw first, so workers take draws out of order.
  pool.ParallelFor(kDraws, [&](int64_t i) {
    const auto draw = static_cast<uint64_t>(kDraws - i);
    keyed.DrawInto(draw, &pooled[draw - 1]);
  });
  for (size_t i = 0; i < pooled.size(); ++i) {
    EXPECT_EQ(pooled[i], expected[i]) << "draw " << i + 1;
    EXPECT_EQ(pooled[i], graph.WithPermutedFlows(77, i + 1).PairOrderFlows())
        << "draw " << i + 1;
  }
}

TEST(FlowPermutationTest, ViewSharesTimestampStorageByIdentity) {
  for (uint64_t seed : {2u, 9u, 21u}) {
    const TimeSeriesGraph graph = RandomGraph(seed, 7, 90, 60);
    const TimeSeriesGraph view = graph.WithPermutedFlows(seed * 17 + 1, 1);

    ASSERT_EQ(view.num_pairs(), graph.num_pairs());
    EXPECT_EQ(view.topology_identity(), graph.topology_identity());
    for (int64_t p = 0; p < graph.num_pairs(); ++p) {
      const EdgeSeries& orig = graph.pair(static_cast<size_t>(p)).series;
      const EdgeSeries& permuted = view.pair(static_cast<size_t>(p)).series;
      // Same identity AND the very same vector object behind times().
      EXPECT_EQ(permuted.timestamp_identity(), orig.timestamp_identity());
      EXPECT_EQ(&permuted.times(), &orig.times());
      EXPECT_EQ(permuted.size(), orig.size());
      // Flow storage is independent: prefix sums reflect the new flows.
      EXPECT_EQ(view.pair(static_cast<size_t>(p)).src,
                graph.pair(static_cast<size_t>(p)).src);
      EXPECT_EQ(view.pair(static_cast<size_t>(p)).dst,
                graph.pair(static_cast<size_t>(p)).dst);
    }
  }
}

TEST(FlowPermutationTest, FlowMultisetPreservedAndOriginalUntouched) {
  for (uint64_t seed : {4u, 13u, 33u}) {
    const TimeSeriesGraph graph = RandomGraph(seed, 6, 80, 50);
    const std::vector<Flow> before = AllFlows(graph);

    const TimeSeriesGraph view = graph.WithPermutedFlows(seed + 100, 1);

    // Original flows byte-identical after the permutation.
    EXPECT_EQ(AllFlows(graph), before);

    // The view's flow multiset equals the original's.
    std::vector<Flow> sorted_before = before;
    std::vector<Flow> sorted_view = AllFlows(view);
    std::sort(sorted_before.begin(), sorted_before.end());
    std::sort(sorted_view.begin(), sorted_view.end());
    EXPECT_EQ(sorted_view, sorted_before);

    // Per-series totals must match the per-series flows (prefix sums
    // rebuilt for the view, not inherited).
    for (int64_t p = 0; p < view.num_pairs(); ++p) {
      const EdgeSeries& s = view.pair(static_cast<size_t>(p)).series;
      Flow total = 0.0;
      for (size_t i = 0; i < s.size(); ++i) total += s.flow(i);
      EXPECT_DOUBLE_EQ(s.TotalFlow(), total);
    }
  }
}

TEST(FlowPermutationTest, RngStreamIndependentOfHowViewsAreConsumed) {
  const TimeSeriesGraph graph = RandomGraph(8, 6, 70, 40);

  // Views 1..5 drawn in order equal the same views drawn backwards,
  // and the stream's draws 1..5 taken as 3 and then 2 more.
  std::vector<TimeSeriesGraph> batch;
  for (uint64_t i = 1; i <= 5; ++i) {
    batch.push_back(graph.WithPermutedFlows(77, i));
  }
  for (uint64_t i = 5; i >= 1; --i) {
    const TimeSeriesGraph again = graph.WithPermutedFlows(77, i);
    EXPECT_EQ(AllFlows(again), AllFlows(batch[i - 1])) << "view " << i;
  }
  std::vector<Flow> flows;
  FlowPermutationStream first_three(graph, 77);
  for (size_t i = 0; i < 3; ++i) {
    first_three.NextPermutationInto(&flows);
    EXPECT_EQ(flows, AllFlows(batch[i])) << "stream draw " << i + 1;
  }
  for (size_t i = 3; i < 5; ++i) {
    first_three.NextPermutationInto(&flows);
    EXPECT_EQ(flows, AllFlows(batch[i])) << "stream draw " << i + 1;
  }
}

TEST(FlowPermutationTest, EnsembleIdenticalAcrossPoolSizeAndMotifOrder) {
  const TimeSeriesGraph graph = RandomGraph(14, 6, 80, 40);
  SignificanceAnalyzer::Options options;
  options.num_random_graphs = 5;
  options.seed = 1234;
  options.delta = 9;
  options.phi = 2.0;

  const Motif m33 = *MotifCatalog::ByName("M(3,3)");
  const Motif m54 = *MotifCatalog::ByName("M(5,4)");

  // Serial reference: analyze M(3,3) alone.
  const SignificanceAnalyzer serial(graph, options);
  const SignificanceAnalyzer::MotifReport base = serial.Analyze(m33);

  // Same report regardless of pool size...
  for (const int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    SignificanceAnalyzer::Options pooled = options;
    pooled.pool = &pool;
    const SignificanceAnalyzer analyzer(graph, pooled);
    const SignificanceAnalyzer::MotifReport report = analyzer.Analyze(m33);
    EXPECT_EQ(report.random_counts, base.random_counts)
        << "threads=" << threads;
    EXPECT_EQ(report.real_count, base.real_count) << "threads=" << threads;
  }

  // ...and regardless of which motif the analyzer saw first.
  const SignificanceAnalyzer fresh(graph, options);
  (void)fresh.Analyze(m54);
  EXPECT_EQ(fresh.Analyze(m33).random_counts, base.random_counts);
  const std::vector<SignificanceAnalyzer::MotifReport> all =
      fresh.AnalyzeAll({m54, m33});
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[1].random_counts, base.random_counts);
}

TEST(FlowPermutationTest, DeepCopyOwnsFreshStorageWithEqualContent) {
  const TimeSeriesGraph graph = RandomGraph(5, 5, 60, 30);
  const TimeSeriesGraph copy = graph.DeepCopy();

  EXPECT_NE(copy.topology_identity(), graph.topology_identity());
  ASSERT_EQ(copy.num_pairs(), graph.num_pairs());
  EXPECT_EQ(copy.num_vertices(), graph.num_vertices());
  for (int64_t p = 0; p < graph.num_pairs(); ++p) {
    const EdgeSeries& a = graph.pair(static_cast<size_t>(p)).series;
    const EdgeSeries& b = copy.pair(static_cast<size_t>(p)).series;
    EXPECT_NE(b.timestamp_identity(), a.timestamp_identity());
    EXPECT_EQ(b.times(), a.times());
    EXPECT_EQ(b.flows(), a.flows());
  }
}

TEST(FlowPermutationTest, EdgeSeriesWithFlowsSharesIdentity) {
  const EdgeSeries series = testing_util::MakeSeries(
      {Interaction{3, 1.0}, Interaction{5, 2.0}, Interaction{5, 4.0},
       Interaction{9, 0.5}});
  const EdgeSeries view = series.WithFlows({4.0, 3.0, 1.0, 2.0});
  EXPECT_EQ(view.timestamp_identity(), series.timestamp_identity());
  EXPECT_EQ(&view.times(), &series.times());
  EXPECT_EQ(view.flow(0), 4.0);
  EXPECT_DOUBLE_EQ(view.TotalFlow(), 10.0);
  // Original untouched, prefix sums independent.
  EXPECT_EQ(series.flow(0), 1.0);
  EXPECT_DOUBLE_EQ(series.TotalFlow(), 7.5);
  // DeepCopy of a series re-homes the timestamps.
  const EdgeSeries copy = series.DeepCopy();
  EXPECT_NE(copy.timestamp_identity(), series.timestamp_identity());
  EXPECT_EQ(copy.times(), series.times());
}

}  // namespace
}  // namespace flowmotif
