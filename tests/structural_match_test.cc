#include "core/structural_match.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/motif_catalog.h"
#include "test_util.h"
#include "util/cancellation.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace flowmotif {
namespace {

using testing_util::MakeGraph;
using testing_util::PaperFig2Graph;

Motif M33() { return *Motif::FromSpanningPath({0, 1, 2, 0}, "M(3,3)"); }
Motif Chain3() { return *Motif::FromSpanningPath({0, 1, 2}, "M(3,2)"); }

TEST(StructuralMatchTest, PaperFig6HasExactlySixMatchesOfM33) {
  TimeSeriesGraph g = PaperFig2Graph();
  StructuralMatcher matcher(g, M33());
  std::vector<MatchBinding> matches = matcher.FindAllMatches();
  ASSERT_EQ(matches.size(), 6u);

  // Two triangles, each contributing three rotations. Binding is
  // (node0, node1, node2) as graph vertices; u1=0, u2=1, u3=2, u4=3.
  std::set<MatchBinding> expected{
      {0, 1, 2}, {1, 2, 0}, {2, 0, 1},  // u1->u2->u3->u1
      {1, 2, 3}, {2, 3, 1}, {3, 1, 2},  // u2->u3->u4->u2
  };
  std::set<MatchBinding> actual(matches.begin(), matches.end());
  EXPECT_EQ(actual, expected);
}

TEST(StructuralMatchTest, CountMatchesAgreesWithFindAll) {
  TimeSeriesGraph g = PaperFig2Graph();
  for (const Motif& motif : MotifCatalog::All()) {
    StructuralMatcher matcher(g, motif);
    EXPECT_EQ(matcher.CountMatches(),
              static_cast<int64_t>(matcher.FindAllMatches().size()))
        << motif.name();
  }
}

TEST(StructuralMatchTest, ChainMatchesOnPaperGraph) {
  TimeSeriesGraph g = PaperFig2Graph();
  StructuralMatcher matcher(g, Chain3());
  std::vector<MatchBinding> matches = matcher.FindAllMatches();
  // Every match must map motif edges onto existing pairs with distinct
  // vertices.
  for (const MatchBinding& m : matches) {
    EXPECT_TRUE(matcher.IsMatch(m));
  }
  // Spot-check a known 2-path: u3->u1->u2 (2,0,1).
  EXPECT_NE(std::find(matches.begin(), matches.end(),
                      MatchBinding{2, 0, 1}),
            matches.end());
  // u1->u2->u1 would not be injective; u2->u3->u4 (1,2,3) exists.
  EXPECT_NE(std::find(matches.begin(), matches.end(),
                      MatchBinding{1, 2, 3}),
            matches.end());
}

TEST(StructuralMatchTest, InjectivityExcludesTwoCycleAsChain) {
  // 0->1->0: a chain match would need node2 == node0, which injectivity
  // forbids.
  TimeSeriesGraph g = MakeGraph({{0, 1, 1, 1.0}, {1, 0, 2, 1.0}});
  StructuralMatcher matcher(g, Chain3());
  EXPECT_EQ(matcher.CountMatches(), 0);
}

TEST(StructuralMatchTest, TwoCycleMotifMatchesBothRotations) {
  TimeSeriesGraph g = MakeGraph({{0, 1, 1, 1.0}, {1, 0, 2, 1.0}});
  Motif two_cycle = *Motif::FromSpanningPath({0, 1, 0});
  StructuralMatcher matcher(g, two_cycle);
  std::vector<MatchBinding> matches = matcher.FindAllMatches();
  std::set<MatchBinding> actual(matches.begin(), matches.end());
  EXPECT_EQ(actual, (std::set<MatchBinding>{{0, 1}, {1, 0}}));
}

TEST(StructuralMatchTest, EmptyGraphHasNoMatches) {
  TimeSeriesGraph g = TimeSeriesGraph::Build(InteractionGraph());
  StructuralMatcher matcher(g, Chain3());
  EXPECT_EQ(matcher.CountMatches(), 0);
}

TEST(StructuralMatchTest, SelfLoopsNeverMatch) {
  TimeSeriesGraph g = MakeGraph({{0, 0, 1, 1.0}, {0, 1, 2, 1.0},
                                 {1, 1, 3, 1.0}});
  Motif edge = *Motif::FromSpanningPath({0, 1});
  StructuralMatcher matcher(g, edge);
  std::vector<MatchBinding> matches = matcher.FindAllMatches();
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0], (MatchBinding{0, 1}));
}

TEST(StructuralMatchTest, VisitorEarlyStop) {
  TimeSeriesGraph g = PaperFig2Graph();
  StructuralMatcher matcher(g, M33());
  int visited = 0;
  matcher.FindAll([&visited](MatchRef) {
    ++visited;
    return visited < 2;  // stop after the second match
  });
  EXPECT_EQ(visited, 2);
}

TEST(StructuralMatchTest, MatchesAreDeterministic) {
  TimeSeriesGraph g = PaperFig2Graph();
  StructuralMatcher matcher(g, M33());
  EXPECT_EQ(matcher.FindAllMatches(), matcher.FindAllMatches());
}

TEST(StructuralMatchTest, IsMatchRejectsBadBindings) {
  TimeSeriesGraph g = PaperFig2Graph();
  StructuralMatcher matcher(g, M33());
  EXPECT_FALSE(matcher.IsMatch({0, 1}));        // wrong size
  EXPECT_FALSE(matcher.IsMatch({0, 1, 1}));     // not injective
  EXPECT_FALSE(matcher.IsMatch({0, 1, 99}));    // out of range
  EXPECT_FALSE(matcher.IsMatch({0, 2, 1}));     // u1->u3 missing
  EXPECT_TRUE(matcher.IsMatch({0, 1, 2}));
}

TEST(StructuralMatchTest, FourCycleMotif) {
  // Square 0->1->2->3->0 plus a chord; M(4,4)A should find 4 rotations.
  TimeSeriesGraph g = MakeGraph({{0, 1, 1, 1.0},
                                 {1, 2, 2, 1.0},
                                 {2, 3, 3, 1.0},
                                 {3, 0, 4, 1.0},
                                 {0, 2, 5, 1.0}});
  Motif square = *MotifCatalog::ByName("M(4,4)A");
  StructuralMatcher matcher(g, square);
  EXPECT_EQ(matcher.CountMatches(), 4);
}

TEST(StructuralMatchTest, TailIntoCycleMotif) {
  // M(4,4)B = 0-1-2-3-1: tail 0->1 into triangle 1->2->3->1.
  TimeSeriesGraph g = MakeGraph({{9, 1, 1, 1.0},   // tail
                                 {1, 2, 2, 1.0},
                                 {2, 3, 3, 1.0},
                                 {3, 1, 4, 1.0}});
  Motif motif = *MotifCatalog::ByName("M(4,4)B");
  StructuralMatcher matcher(g, motif);
  std::vector<MatchBinding> matches = matcher.FindAllMatches();
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0], (MatchBinding{9, 1, 2, 3}));
}

/// A small dense random graph with repeated pairs and self-loops, so
/// every catalog motif and both general shapes below have matches.
TimeSeriesGraph DenseRandomGraph(uint64_t seed) {
  Rng rng(seed);
  InteractionGraph g;
  for (int i = 0; i < 45; ++i) {
    const Status s = g.AddEdge(static_cast<VertexId>(rng.NextBounded(9)),
                               static_cast<VertexId>(rng.NextBounded(9)),
                               static_cast<Timestamp>(i), 1.0);
    EXPECT_TRUE(s.ok()) << s;
  }
  return TimeSeriesGraph::Build(g);
}

/// The catalog plus two general motifs: one whose second labeled edge
/// has both endpoints fresh (the pair-table scan) and one binding a
/// fan-in source through the reverse adjacency.
std::vector<Motif> PathAndGeneralMotifs() {
  std::vector<Motif> motifs = MotifCatalog::All();
  motifs.push_back(
      *Motif::FromEdgeList({{0, 1}, {2, 3}, {1, 2}}, "fresh-pair-scan"));
  motifs.push_back(*Motif::FromEdgeList({{0, 1}, {2, 1}, {1, 3}}, "fan-in"));
  return motifs;
}

std::vector<MatchBinding> Collect(const StructuralMatcher& matcher,
                                  int64_t begin, int64_t end,
                                  QueryControl* control = nullptr,
                                  bool* completed = nullptr) {
  std::vector<MatchBinding> out;
  const bool done = matcher.FindInUnits(
      begin, end,
      [&out](MatchRef m) {
        out.push_back(m.ToBinding());
        return true;
      },
      control);
  if (completed != nullptr) *completed = done;
  return out;
}

TEST(StructuralMatchTest, PerUnitScansConcatenateToFindAll) {
  // Each work unit scanned on its own, concatenated in unit order, is
  // the serial FindAll order; so are the flat lists, serial and
  // parallel.
  ThreadPool pool(4);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const TimeSeriesGraph g = DenseRandomGraph(seed);
    for (const Motif& motif : PathAndGeneralMotifs()) {
      const StructuralMatcher matcher(g, motif);
      const std::vector<MatchBinding> all = matcher.FindAllMatches();
      if (!motif.is_path()) {
        EXPECT_FALSE(all.empty()) << motif.name();
      }
      std::vector<MatchBinding> per_unit;
      for (int64_t u = 0; u < matcher.NumWorkUnits(); ++u) {
        for (MatchBinding& m : Collect(matcher, u, u + 1)) {
          per_unit.push_back(std::move(m));
        }
      }
      EXPECT_EQ(per_unit, all) << motif.name() << " seed " << seed;
      EXPECT_EQ(matcher.FindMatchList().ToBindings(), all) << motif.name();
      EXPECT_EQ(matcher.FindMatchList(&pool).ToBindings(), all)
          << motif.name();
      for (const MatchBinding& m : all) EXPECT_TRUE(matcher.IsMatch(m));
    }
  }
}

TEST(StructuralMatchTest, ControlIsCheckedPerUnit) {
  const TimeSeriesGraph g = DenseRandomGraph(7);
  for (const Motif& motif : PathAndGeneralMotifs()) {
    const StructuralMatcher matcher(g, motif);
    // A control that never fires changes nothing.
    QueryControl idle(nullptr, QueryDeadline::AfterSeconds(3600.0),
                      WorkBudget());
    bool completed = false;
    EXPECT_EQ(Collect(matcher, 0, matcher.NumWorkUnits(), &idle, &completed),
              matcher.FindAllMatches())
        << motif.name();
    EXPECT_TRUE(completed);
    // A cancelled one stops before the first unit.
    CancellationToken token;
    token.Cancel();
    QueryControl cancelled(&token, QueryDeadline(), WorkBudget());
    EXPECT_TRUE(
        Collect(matcher, 0, matcher.NumWorkUnits(), &cancelled, &completed)
            .empty());
    EXPECT_FALSE(completed);
  }
}

TEST(StructuralMatchTest, ExtendWithEpochMatchesEqualBatchBuild) {
  // An epoch that adds a pair closing new cycles and paths: its
  // structural matches — read off the rebuilt CSR index — equal those of
  // a batch Build of the union, for a path and a general motif.
  const std::vector<InteractionGraph::Edge> base_edges = {
      {0, 1, 1, 1.0}, {1, 2, 2, 1.0}, {2, 3, 3, 1.0}, {3, 1, 4, 1.0},
      {1, 4, 5, 1.0}, {4, 2, 6, 1.0},
  };
  const std::vector<InteractionGraph::Edge> tail = {
      {2, 0, 7, 1.0}, {4, 0, 8, 1.0}, {0, 1, 9, 2.0},
  };
  InteractionGraph base_graph;
  InteractionGraph union_graph;
  for (const auto& e : base_edges) {
    ASSERT_TRUE(base_graph.AddEdge(e.src, e.dst, e.t, e.f).ok());
    ASSERT_TRUE(union_graph.AddEdge(e.src, e.dst, e.t, e.f).ok());
  }
  for (const auto& e : tail) {
    ASSERT_TRUE(union_graph.AddEdge(e.src, e.dst, e.t, e.f).ok());
  }
  const TimeSeriesGraph base = TimeSeriesGraph::Build(base_graph);
  const TimeSeriesGraph extended =
      TimeSeriesGraph::ExtendWith(base, tail, base.num_vertices(), 1);
  const TimeSeriesGraph batch = TimeSeriesGraph::Build(union_graph);
  ASSERT_NE(extended.topology_identity(), base.topology_identity());
  ASSERT_TRUE(extended.Verify().ok());

  const std::vector<Motif> motifs = {
      *MotifCatalog::ByName("M(3,3)"), *MotifCatalog::ByName("M(4,4)A"),
      *Motif::FromEdgeList({{0, 1}, {2, 1}, {1, 3}}, "fan-in-out")};
  for (const Motif& motif : motifs) {
    const std::vector<MatchBinding> expected =
        StructuralMatcher(batch, motif).FindAllMatches();
    EXPECT_FALSE(expected.empty()) << motif.name();
    EXPECT_EQ(StructuralMatcher(extended, motif).FindAllMatches(), expected)
        << motif.name();
  }
}

}  // namespace
}  // namespace flowmotif
