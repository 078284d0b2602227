#include "core/counter.h"

#include <gtest/gtest.h>

#include "core/enumerator.h"
#include "core/motif_catalog.h"
#include "gen/presets.h"
#include "graph/interaction_graph.h"
#include "test_util.h"
#include "util/random.h"

namespace flowmotif {
namespace {

using testing_util::PaperFig2Graph;
using testing_util::PaperFig7Graph;

Motif M33() { return *Motif::FromSpanningPath({0, 1, 2, 0}, "M(3,3)"); }

int64_t EnumeratedCount(const TimeSeriesGraph& g, const Motif& motif,
                        Timestamp delta, Flow phi) {
  EnumerationOptions options;
  options.delta = delta;
  options.phi = phi;
  return FlowMotifEnumerator(g, motif, options).Run().num_instances;
}

TEST(CounterTest, MatchesEnumeratorOnPaperGraphs) {
  for (Flow phi : {0.0, 5.0, 7.0}) {
    {
      TimeSeriesGraph g = PaperFig2Graph();
      InstanceCounter counter(g, M33(), 10, phi);
      EXPECT_EQ(counter.Run().num_instances,
                EnumeratedCount(g, M33(), 10, phi))
          << "fig2 phi=" << phi;
    }
    {
      TimeSeriesGraph g = PaperFig7Graph();
      InstanceCounter counter(g, M33(), 10, phi);
      EXPECT_EQ(counter.Run().num_instances,
                EnumeratedCount(g, M33(), 10, phi))
          << "fig7 phi=" << phi;
    }
  }
}

TEST(CounterTest, MatchesEnumeratorAcrossCatalogOnRandomGraphs) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    InteractionGraph mg;
    mg.EnsureVertices(8);
    for (int i = 0; i < 150; ++i) {
      VertexId u = static_cast<VertexId>(rng.NextBounded(8));
      VertexId v = static_cast<VertexId>(rng.NextBounded(8));
      if (u == v) continue;
      (void)mg.AddEdge(u, v, static_cast<Timestamp>(rng.NextBounded(120)),
                       1.0 + static_cast<Flow>(rng.NextBounded(9)));
    }
    TimeSeriesGraph g = TimeSeriesGraph::Build(mg);
    for (const Motif& motif : MotifCatalog::All()) {
      for (Flow phi : {0.0, 4.0}) {
        InstanceCounter counter(g, motif, 30, phi);
        EXPECT_EQ(counter.Run().num_instances,
                  EnumeratedCount(g, motif, 30, phi))
            << motif.name() << " seed=" << seed << " phi=" << phi;
      }
    }
  }
}

TEST(CounterTest, CountsOnGeneratedDataset) {
  TimeSeriesGraph g = GenerateDataset(GetPreset(DatasetKind::kPassenger),
                                      0.2);
  Motif motif = *MotifCatalog::ByName("M(4,3)");
  InstanceCounter counter(g, motif, 900, 2.0);
  InstanceCounter::Result result = counter.Run();
  EXPECT_EQ(result.num_instances, EnumeratedCount(g, motif, 900, 2.0));
  EXPECT_GT(result.num_structural_matches, 0);
  EXPECT_GT(result.num_windows, 0);
}

TEST(CounterTest, MemoizationActuallyHits) {
  // Memo hits need depth >= 4: two different e1 prefixes reach distinct
  // e2 states whose own prefixes overlap, so the same e3 state is
  // requested twice (the last edge is a closed-form base case and is
  // never memoized).
  InteractionGraph mg;
  for (int i = 0; i < 10; ++i) {
    (void)mg.AddEdge(0, 1, i * 10, 1.0);
    (void)mg.AddEdge(1, 2, i * 10 + 3, 1.0);
    (void)mg.AddEdge(2, 3, i * 10 + 5, 1.0);
    (void)mg.AddEdge(3, 4, i * 10 + 7, 1.0);
  }
  TimeSeriesGraph g = TimeSeriesGraph::Build(mg);
  Motif chain = *Motif::FromSpanningPath({0, 1, 2, 3, 4});
  InstanceCounter counter(g, chain, 100, 0.0);
  InstanceCounter::Result result = counter.Run();
  EXPECT_EQ(result.num_instances, EnumeratedCount(g, chain, 100, 0.0));
  EXPECT_GT(result.memo_hits, 0);
}

TEST(CounterTest, RunOnMatchesSubset) {
  TimeSeriesGraph g = PaperFig7Graph();
  InstanceCounter counter(g, M33(), 10, 0.0);
  InstanceCounter::Result result = counter.RunOnMatches({{2, 1, 0}});
  EXPECT_EQ(result.num_instances, 4);  // the Fig. 7 hand-traced count
  EXPECT_EQ(result.num_structural_matches, 1);
}

TEST(CounterTest, CountMatchSingle) {
  TimeSeriesGraph g = PaperFig2Graph();
  InstanceCounter counter(g, M33(), 10, 7.0);
  InstanceCounter::Result scratch;
  WindowListMru reader(10);
  EXPECT_EQ(counter.CountMatch(MatchBinding{2, 0, 1}, &scratch, &reader),
            1);  // Fig. 4(a)
  EXPECT_EQ(counter.CountMatch(MatchBinding{0, 1, 2}, &scratch, &reader), 0);
}

TEST(CounterDeathTest, NegativeParametersAbort) {
  TimeSeriesGraph g = PaperFig2Graph();
  EXPECT_DEATH(InstanceCounter(g, M33(), -1, 0.0), "Check failed");
  EXPECT_DEATH(InstanceCounter(g, M33(), 10, -1.0), "Check failed");
}

}  // namespace
}  // namespace flowmotif
