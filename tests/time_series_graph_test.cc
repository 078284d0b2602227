#include "graph/time_series_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "test_util.h"
#include "util/random.h"

namespace flowmotif {
namespace {

using testing_util::MakeGraph;
using testing_util::PaperFig2Graph;

void ExpectVerified(const TimeSeriesGraph& g, const std::string& label) {
  const Status status = g.Verify();
  EXPECT_TRUE(status.ok()) << label << ": " << status;
}

/// A random multigraph with repeated pairs, duplicate timestamps and
/// (t, f) elements, self-loops and isolated vertices.
TimeSeriesGraph RandomGraph(uint64_t seed, int num_vertices, int num_edges) {
  Rng rng(seed);
  InteractionGraph g;
  g.EnsureVertices(num_vertices + 3);  // a few isolated vertices
  for (int i = 0; i < num_edges; ++i) {
    const Status s = g.AddEdge(
        static_cast<VertexId>(rng.NextBounded(num_vertices)),
        static_cast<VertexId>(rng.NextBounded(num_vertices)),
        static_cast<Timestamp>(rng.NextBounded(20)),
        1.0 + static_cast<Flow>(rng.NextBounded(3)));
    EXPECT_TRUE(s.ok()) << s;
  }
  return TimeSeriesGraph::Build(g);
}

TEST(TimeSeriesGraphTest, BuildMergesMultiEdgesIntoSeries) {
  // The paper's Fig. 5 example: two u1->u2 edges merge into one pair.
  TimeSeriesGraph g = PaperFig2Graph();
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_pairs(), 7);

  const EdgeSeries* series = g.FindSeries(0, 1);
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->size(), 2u);
  EXPECT_EQ(series->at(0), (Interaction{13, 5.0}));
  EXPECT_EQ(series->at(1), (Interaction{15, 7.0}));
}

TEST(TimeSeriesGraphTest, SeriesAreTimeSorted) {
  TimeSeriesGraph g = MakeGraph({{0, 1, 30, 1.0}, {0, 1, 10, 2.0},
                                 {0, 1, 20, 3.0}});
  const EdgeSeries* series = g.FindSeries(0, 1);
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->time(0), 10);
  EXPECT_EQ(series->time(1), 20);
  EXPECT_EQ(series->time(2), 30);
}

TEST(TimeSeriesGraphTest, FindSeriesMissingPairs) {
  TimeSeriesGraph g = PaperFig2Graph();
  EXPECT_EQ(g.FindSeries(0, 2), nullptr);  // u1->u3 does not exist
  EXPECT_EQ(g.FindSeries(1, 0), nullptr);  // u2->u1 does not exist
  EXPECT_EQ(g.FindSeries(-1, 0), nullptr);
  EXPECT_EQ(g.FindSeries(99, 0), nullptr);
}

TEST(TimeSeriesGraphTest, OutAdjacencyRanges) {
  TimeSeriesGraph g = PaperFig2Graph();
  // u4 (=3) has out-edges to u1, u2 and u3, sorted by destination.
  EXPECT_EQ(g.OutDegree(3), 3);
  std::vector<VertexId> dsts;
  for (size_t p = g.OutBegin(3); p < g.OutEnd(3); ++p) {
    dsts.push_back(g.pair(p).dst);
  }
  EXPECT_EQ(dsts, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(g.OutDegree(1), 1);  // u2 -> u3 only
}

TEST(TimeSeriesGraphTest, CsrArraysMirrorThePairList) {
  // out_dst is pair(p).dst, in_src runs list every pair's source grouped
  // by destination in ascending order, and FindPairIndex agrees with a
  // linear scan for every vertex pair, connected or not.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const TimeSeriesGraph g = RandomGraph(seed, 12, 60);
    for (size_t p = 0; p < static_cast<size_t>(g.num_pairs()); ++p) {
      EXPECT_EQ(g.PairDst(p), g.pair(p).dst);
    }
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      std::vector<VertexId> expected;
      for (const auto& pe : g.pairs()) {
        if (pe.dst == v) expected.push_back(pe.src);
      }
      std::vector<VertexId> actual;
      for (size_t k = g.InBegin(v); k < g.InEnd(v); ++k) {
        actual.push_back(g.InSrc(k));
      }
      EXPECT_EQ(actual, expected) << "seed " << seed << " vertex " << v;
      EXPECT_EQ(g.InDegree(v), static_cast<int64_t>(expected.size()));
    }
    for (VertexId u = -1; u <= g.num_vertices(); ++u) {
      for (VertexId v = -1; v <= g.num_vertices(); ++v) {
        int64_t expected = -1;
        for (size_t p = 0; p < static_cast<size_t>(g.num_pairs()); ++p) {
          if (g.pair(p).src == u && g.pair(p).dst == v) {
            expected = static_cast<int64_t>(p);
          }
        }
        EXPECT_EQ(g.FindPairIndex(u, v), expected) << u << "->" << v;
      }
    }
  }
}

TEST(TimeSeriesGraphTest, VerifyHoldsAfterBuildPermuteAndDeepCopy) {
  std::vector<std::pair<std::string, TimeSeriesGraph>> graphs;
  graphs.emplace_back("default", TimeSeriesGraph());
  graphs.emplace_back("empty build", TimeSeriesGraph::Build(InteractionGraph()));
  graphs.emplace_back("paper fig2", PaperFig2Graph());
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    graphs.emplace_back("random " + std::to_string(seed),
                        RandomGraph(seed, 10, 50));
  }
  for (const auto& [label, g] : graphs) {
    ExpectVerified(g, label);
    ExpectVerified(g.WithPermutedFlows(17, 1), label + " permuted");
    ExpectVerified(g.DeepCopy(), label + " deep copy");
  }
}

TEST(TimeSeriesGraphTest, FindPairIndexConsistentWithPairs) {
  TimeSeriesGraph g = PaperFig2Graph();
  for (size_t i = 0; i < static_cast<size_t>(g.num_pairs()); ++i) {
    const auto& pe = g.pair(i);
    EXPECT_EQ(g.FindPairIndex(pe.src, pe.dst), static_cast<int64_t>(i));
  }
}

TEST(TimeSeriesGraphTest, StatsMatchPaperExample) {
  TimeSeriesGraph g = PaperFig2Graph();
  TimeSeriesGraph::Stats stats = g.ComputeStats();
  EXPECT_EQ(stats.num_vertices, 4);
  EXPECT_EQ(stats.num_connected_pairs, 7);
  EXPECT_EQ(stats.num_interactions, 10);
  // Total flow 5+7+20+10+5+4+7+2+5+10 = 75 over 10 interactions.
  EXPECT_DOUBLE_EQ(stats.avg_flow_per_edge, 7.5);
  EXPECT_EQ(stats.min_time, 1);
  EXPECT_EQ(stats.max_time, 23);
}

TEST(TimeSeriesGraphTest, EmptyGraphStats) {
  TimeSeriesGraph g = TimeSeriesGraph::Build(InteractionGraph());
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_pairs(), 0);
  TimeSeriesGraph::Stats stats = g.ComputeStats();
  EXPECT_EQ(stats.num_interactions, 0);
  EXPECT_EQ(stats.avg_flow_per_edge, 0.0);
}

TEST(TimeSeriesGraphTest, PermutedFlowsKeepsStructureAndTimestamps) {
  TimeSeriesGraph g = PaperFig2Graph();
  TimeSeriesGraph r = g.WithPermutedFlows(99, 1);

  ASSERT_EQ(r.num_pairs(), g.num_pairs());
  for (size_t i = 0; i < static_cast<size_t>(g.num_pairs()); ++i) {
    EXPECT_EQ(r.pair(i).src, g.pair(i).src);
    EXPECT_EQ(r.pair(i).dst, g.pair(i).dst);
    ASSERT_EQ(r.pair(i).series.size(), g.pair(i).series.size());
    for (size_t j = 0; j < g.pair(i).series.size(); ++j) {
      EXPECT_EQ(r.pair(i).series.time(j), g.pair(i).series.time(j));
    }
  }
}

TEST(TimeSeriesGraphTest, PermutedFlowsPreservesFlowMultiset) {
  TimeSeriesGraph g = PaperFig2Graph();
  TimeSeriesGraph r = g.WithPermutedFlows(99, 1);

  auto collect = [](const TimeSeriesGraph& graph) {
    std::vector<Flow> flows;
    for (const auto& pe : graph.pairs()) {
      for (size_t j = 0; j < pe.series.size(); ++j) {
        flows.push_back(pe.series.flow(j));
      }
    }
    std::sort(flows.begin(), flows.end());
    return flows;
  };
  EXPECT_EQ(collect(g), collect(r));
}

TEST(TimeSeriesGraphTest, PermutedFlowsActuallyShuffles) {
  // With 10 distinct-ish flows the chance of an identity permutation is
  // negligible; use a few seeds to be safe.
  TimeSeriesGraph g = PaperFig2Graph();
  bool changed = false;
  for (uint64_t seed = 1; seed <= 3 && !changed; ++seed) {
    TimeSeriesGraph r = g.WithPermutedFlows(seed, 1);
    for (size_t i = 0; i < static_cast<size_t>(g.num_pairs()); ++i) {
      for (size_t j = 0; j < g.pair(i).series.size(); ++j) {
        if (r.pair(i).series.flow(j) != g.pair(i).series.flow(j)) {
          changed = true;
        }
      }
    }
  }
  EXPECT_TRUE(changed);
}

TEST(TimeSeriesGraphTest, PermutationIsDeterministicPerSeedAndDraw) {
  TimeSeriesGraph g = PaperFig2Graph();
  TimeSeriesGraph a = g.WithPermutedFlows(7, 3);
  TimeSeriesGraph b = g.WithPermutedFlows(7, 3);
  EXPECT_EQ(a.PairOrderFlows(), b.PairOrderFlows());
  // Other draws and other seeds give other graphs.
  EXPECT_NE(g.WithPermutedFlows(7, 4).PairOrderFlows(), a.PairOrderFlows());
  EXPECT_NE(g.WithPermutedFlows(8, 3).PairOrderFlows(), a.PairOrderFlows());
}

TEST(TimeSeriesGraphTest, DebugStringMentionsCounts) {
  TimeSeriesGraph g = PaperFig2Graph();
  std::string s = g.DebugString();
  EXPECT_NE(s.find("vertices=4"), std::string::npos);
  EXPECT_NE(s.find("pairs=7"), std::string::npos);
}

}  // namespace
}  // namespace flowmotif
