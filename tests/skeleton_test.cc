// What a recorded enumeration skeleton promises (core/skeleton.h):
//  * replaying the trace against the real graph's prefix arena
//    reproduces the enumeration's instance count exactly — paper
//    graphs, seeded random graphs, every catalog motif;
//  * the trace is phi-free: one recording answers any phi threshold,
//    and the EvaluateFlows/CountWithFlows split answers a whole phi
//    grid from one flow evaluation;
//  * the trace is flow-free: one recording answers any flow assignment
//    over the same timestamps, so replaying permuted arenas equals
//    enumerating the corresponding WithPermutedFlows views;
//  * FlowPermutationStream's draw i carries the flows of
//    WithPermutedFlows(seed, i), and WithFlows of it is that view bit
//    for bit;
//  * the recorded extents are exactly the prefix blocks the trace reads,
//    up to the last entry read, and an extent fill of a draw equals the
//    full fill of the same draw on every entry inside them;
//  * every recording (Record and RecordSweepDescending) passes
//    EnumerationSkeleton::Verify;
//  * the trace budget turns recording into a clean bypass (false, no
//    skeleton), and arenas are gated on topology identity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/enumerator.h"
#include "core/motif_catalog.h"
#include "core/skeleton.h"
#include "core/structural_match.h"
#include "core/window_cursor.h"
#include "graph/interaction_graph.h"
#include "graph/time_series_graph.h"
#include "test_util.h"
#include "util/random.h"

namespace flowmotif {
namespace {

using testing_util::MakeGraph;
using testing_util::PaperFig2Graph;
using testing_util::PaperFig7Graph;

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
    // Integer flows keep every comparison exact across orderings.
    const Flow f = 1.0 + static_cast<Flow>(rng.NextBounded(6));
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

/// The enumeration oracle: full Algorithm 1 count at (delta, phi).
int64_t OracleCount(const TimeSeriesGraph& graph, const Motif& motif,
                    const std::vector<MatchBinding>& matches, Timestamp delta,
                    Flow phi) {
  EnumerationOptions opts;
  opts.delta = delta;
  opts.phi = phi;
  const FlowMotifEnumerator enumerator(graph, motif, opts);
  return enumerator.RunOnMatches(matches).num_instances;
}

/// The extents a trace reads, derived from its edges alone: per block
/// (found through the arena's offsets), the largest edge_hi.
std::vector<PrefixExtent> ExtentsReadByEdges(
    const EnumerationSkeleton& skeleton, const FlowPrefixArena& arena,
    size_t num_pairs) {
  std::vector<size_t> offsets;
  for (size_t p = 0; p < num_pairs; ++p) {
    offsets.push_back(arena.block_offset(p));
  }
  std::map<size_t, uint32_t> last;
  for (size_t e = 0; e < skeleton.num_edges(); ++e) {
    const size_t pair = static_cast<size_t>(
        std::upper_bound(offsets.begin(), offsets.end(),
                         skeleton.edge_lo()[e]) -
        offsets.begin() - 1);
    last[pair] = std::max(last[pair], skeleton.edge_hi()[e]);
  }
  std::vector<PrefixExtent> extents;
  for (const auto& [pair, hi] : last) {
    extents.push_back(PrefixExtent{static_cast<uint32_t>(pair),
                                   static_cast<uint32_t>(offsets[pair]), hi});
  }
  return extents;
}

/// memcmp of two arenas over the entries of `extents`.
::testing::AssertionResult ExtentsEqual(
    const FlowPrefixArena& a, const FlowPrefixArena& b,
    const std::vector<PrefixExtent>& extents) {
  for (const PrefixExtent& x : extents) {
    const size_t bytes = (x.last - x.begin + size_t{1}) * sizeof(double);
    if (std::memcmp(a.data() + x.begin, b.data() + x.begin, bytes) != 0) {
      return ::testing::AssertionFailure() << "block of pair " << x.pair;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(SkeletonTest, ReplayMatchesEnumeratorOnPaperGraphs) {
  for (const TimeSeriesGraph& graph : {PaperFig2Graph(), PaperFig7Graph()}) {
    for (const Motif& motif : MotifCatalog::All()) {
      const StructuralMatcher matcher(graph, motif);
      const std::vector<MatchBinding> matches = matcher.FindAllMatches();
      for (const Timestamp delta : {0, 5, 10, 25}) {
        SharedWindowCache cache(delta);
        EnumerationSkeleton skeleton;
        ASSERT_TRUE(
            skeleton.Record(graph, motif, delta, matches, &cache));
        ASSERT_TRUE(skeleton.Verify().ok()) << skeleton.Verify();
        FlowPrefixArena arena;
        arena.FillFromGraph(graph);
        SkeletonReplayer replayer(&skeleton);
        for (const Flow phi : {0.0, 3.0, 5.0, 8.0, 100.0}) {
          EXPECT_EQ(replayer.Count(arena, phi),
                    OracleCount(graph, motif, matches, delta, phi))
              << motif.name() << " delta=" << delta << " phi=" << phi;
        }
      }
    }
  }
}

TEST(SkeletonTest, ReplayMatchesEnumeratorOnSeededRandomGraphs) {
  for (const uint64_t seed : {3u, 11u, 29u, 47u}) {
    const TimeSeriesGraph graph = RandomGraph(seed, 6, 90, 50);
    for (const Motif& motif : MotifCatalog::All()) {
      const StructuralMatcher matcher(graph, motif);
      const std::vector<MatchBinding> matches = matcher.FindAllMatches();
      for (const Timestamp delta : {4, 12}) {
        SharedWindowCache cache(delta);
        EnumerationSkeleton skeleton;
        ASSERT_TRUE(
            skeleton.Record(graph, motif, delta, matches, &cache));
        ASSERT_TRUE(skeleton.Verify().ok()) << skeleton.Verify();
        FlowPrefixArena arena;
        arena.FillFromGraph(graph);
        SkeletonReplayer replayer(&skeleton);
        for (const Flow phi : {0.0, 2.0, 4.0, 9.0}) {
          EXPECT_EQ(replayer.Count(arena, phi),
                    OracleCount(graph, motif, matches, delta, phi))
              << "seed=" << seed << " " << motif.name() << " delta=" << delta
              << " phi=" << phi;
        }
      }
    }
  }
}

TEST(SkeletonTest, PhiSweepOnOneRecordingMatchesPerPhiEnumeration) {
  const TimeSeriesGraph graph = RandomGraph(17, 6, 110, 60);
  const Motif motif = *MotifCatalog::ByName("M(4,3)");
  const StructuralMatcher matcher(graph, motif);
  const std::vector<MatchBinding> matches = matcher.FindAllMatches();
  const Timestamp delta = 10;

  SharedWindowCache cache(delta);
  EnumerationSkeleton skeleton;
  ASSERT_TRUE(skeleton.Record(graph, motif, delta, matches, &cache));
  ASSERT_TRUE(skeleton.Verify().ok()) << skeleton.Verify();
  FlowPrefixArena arena;
  arena.FillFromGraph(graph);
  SkeletonReplayer replayer(&skeleton);

  // One flow evaluation serves the whole phi grid.
  replayer.EvaluateFlows(arena);
  for (const Flow phi : {0.0, 1.0, 2.0, 3.5, 5.0, 7.0, 11.0, 50.0}) {
    EXPECT_EQ(replayer.CountWithFlows(phi),
              OracleCount(graph, motif, matches, delta, phi))
        << "phi=" << phi;
    // The split path equals the fused single-phi pass.
    EXPECT_EQ(replayer.CountWithFlows(phi), replayer.Count(arena, phi));
  }
}

TEST(SkeletonTest, PermutationStreamMatchesWithPermutedFlows) {
  for (const uint64_t seed : {7u, 99u}) {
    const TimeSeriesGraph graph = RandomGraph(seed * 13 + 1, 7, 120, 70);
    FlowPermutationStream stream(graph, seed);
    std::vector<Flow> flows;
    for (uint64_t draw = 1; draw <= 5; ++draw) {
      stream.NextPermutationInto(&flows);
      const TimeSeriesGraph view = graph.WithPermutedFlows(seed, draw);
      EXPECT_EQ(flows, AllFlows(view)) << "seed=" << seed << " draw=" << draw;
      std::vector<Flow> keyed;
      stream.DrawInto(draw, &keyed);
      EXPECT_EQ(keyed, flows) << "seed=" << seed << " draw=" << draw;
    }
  }
}

TEST(SkeletonTest, WithFlowsOfStreamDrawEqualsPermutedView) {
  // Draw i of the stream, turned into a graph by WithFlows, is the same
  // graph as WithPermutedFlows(seed, i): flows and prefix sums bit for
  // bit, over the same shared timestamps and topology.
  for (const uint64_t seed : {5u, 61u}) {
    const TimeSeriesGraph graph = RandomGraph(seed * 7 + 3, 7, 120, 70);
    FlowPermutationStream stream(graph, seed);
    std::vector<Flow> flows;
    for (uint64_t draw = 1; draw <= 4; ++draw) {
      stream.NextPermutationInto(&flows);
      const TimeSeriesGraph drawn = graph.WithFlows(flows);
      const TimeSeriesGraph view = graph.WithPermutedFlows(seed, draw);
      ASSERT_TRUE(drawn.Verify().ok()) << drawn.Verify();
      EXPECT_EQ(drawn.topology_identity(), graph.topology_identity());
      ASSERT_EQ(drawn.num_pairs(), view.num_pairs());
      for (size_t p = 0; p < static_cast<size_t>(view.num_pairs()); ++p) {
        const EdgeSeries& a = drawn.pair(p).series;
        const EdgeSeries& b = view.pair(p).series;
        EXPECT_EQ(a.timestamp_identity(),
                  graph.pair(p).series.timestamp_identity());
        ASSERT_EQ(a.size(), b.size());
        EXPECT_EQ(0, std::memcmp(a.flows().data(), b.flows().data(),
                                 a.size() * sizeof(Flow)))
            << "seed=" << seed << " draw=" << draw << " pair=" << p;
        EXPECT_EQ(0, std::memcmp(a.prefix_sums().data(),
                                 b.prefix_sums().data(),
                                 (a.size() + 1) * sizeof(double)))
            << "seed=" << seed << " draw=" << draw << " pair=" << p;
      }
    }
  }
}

TEST(SkeletonTest, SweepRecordingVerifiesAndMatchesPerDeltaEnumeration) {
  const TimeSeriesGraph graph = RandomGraph(53, 6, 110, 60);
  for (const char* name : {"M(3,2)", "M(4,3)", "M(5,4)"}) {
    const Motif motif = *MotifCatalog::ByName(name);
    const StructuralMatcher matcher(graph, motif);
    const std::vector<MatchBinding> matches = matcher.FindAllMatches();
    const std::vector<Timestamp> deltas = {16, 9, 4, 0};
    std::vector<EnumerationSkeleton> skeletons;
    EnumerationSkeleton::RecordSweepDescending(
        graph, motif, deltas,
        MatchList(static_cast<size_t>(motif.num_nodes()), matches),
        EnumerationSkeleton::Options(), &skeletons);
    ASSERT_EQ(skeletons.size(), deltas.size());
    FlowPrefixArena arena;
    arena.FillFromGraph(graph);
    for (size_t d = 0; d < deltas.size(); ++d) {
      ASSERT_TRUE(skeletons[d].recorded()) << name << " delta=" << deltas[d];
      ASSERT_TRUE(skeletons[d].Verify().ok()) << skeletons[d].Verify();
      EXPECT_EQ(skeletons[d].extents(),
                ExtentsReadByEdges(skeletons[d], arena,
                                   static_cast<size_t>(graph.num_pairs())))
          << name << " delta=" << deltas[d];
      SkeletonReplayer replayer(&skeletons[d]);
      for (const Flow phi : {0.0, 3.0, 7.0}) {
        EXPECT_EQ(replayer.Count(arena, phi),
                  OracleCount(graph, motif, matches, deltas[d], phi))
            << name << " delta=" << deltas[d] << " phi=" << phi;
      }
    }
  }
}

TEST(SkeletonTest, ReplayOnPermutedArenasMatchesEnumerationOnViews) {
  const TimeSeriesGraph graph = RandomGraph(23, 6, 100, 55);
  const Motif motif = *MotifCatalog::ByName("M(3,3)");
  const StructuralMatcher matcher(graph, motif);
  const std::vector<MatchBinding> matches = matcher.FindAllMatches();
  const Timestamp delta = 9;
  const Flow phi = 4.0;

  SharedWindowCache cache(delta);
  EnumerationSkeleton skeleton;
  ASSERT_TRUE(skeleton.Record(graph, motif, delta, matches, &cache));
  ASSERT_TRUE(skeleton.Verify().ok()) << skeleton.Verify();
  SkeletonReplayer replayer(&skeleton);
  FlowPrefixArena arena;

  FlowPermutationStream stream(graph, 4242);
  std::vector<Flow> flows;
  for (uint64_t draw = 1; draw <= 4; ++draw) {
    stream.NextPermutationInto(&flows);
    arena.FillFromFlows(graph, flows);
    // The view shares the graph's timestamps, so the one recording made
    // on the real graph serves the view's flow assignment.
    const TimeSeriesGraph view = graph.WithPermutedFlows(4242, draw);
    EXPECT_EQ(replayer.Count(arena, phi),
              OracleCount(view, motif, matches, delta, phi))
        << "draw=" << draw;
  }
}

TEST(SkeletonTest, ExtentFillEqualsFullFillOnEveryReadBlock) {
  // Small graphs draw from the exact-table permutation, the large one
  // from the Feistel network (util/keyed_permutation.h).
  const std::vector<TimeSeriesGraph> graphs = {
      RandomGraph(71, 6, 90, 40), RandomGraph(72, 8, 140, 60),
      RandomGraph(73, 500, 3000, 3000)};
  for (size_t g = 0; g < graphs.size(); ++g) {
    const TimeSeriesGraph& graph = graphs[g];
    const FlowPermutationStream draws(graph, 600 + g);
    std::vector<PrefixExtent> all;  // union over the catalog
    std::vector<EnumerationSkeleton> skeletons(MotifCatalog::All().size());
    for (size_t m = 0; m < skeletons.size(); ++m) {
      const Motif& motif = MotifCatalog::All()[m];
      const std::string where =
          "graph " + std::to_string(g) + " " + motif.name();
      const std::vector<MatchBinding> matches =
          StructuralMatcher(graph, motif).FindAllMatches();
      const Timestamp delta = g == 2 ? 60 : 12;
      EnumerationSkeleton& skeleton = skeletons[m];
      ASSERT_TRUE(skeleton.Record(graph, motif, delta, matches, nullptr));
      ASSERT_TRUE(skeleton.Verify().ok()) << skeleton.Verify();

      FlowPrefixArena real_full;
      real_full.FillFromGraph(graph);
      // The extents are exactly the blocks the edges read, each up to
      // the last entry any edge reads.
      EXPECT_EQ(skeleton.extents(),
                ExtentsReadByEdges(skeleton, real_full,
                                   static_cast<size_t>(graph.num_pairs())))
          << where;
      UnionPrefixExtents(skeleton.extents(), &all);

      FlowPrefixArena real_sparse;
      real_sparse.FillFromGraph(graph, skeleton.extents());
      EXPECT_TRUE(ExtentsEqual(real_sparse, real_full, skeleton.extents()))
          << where;
      FlowPrefixArena full;
      FlowPrefixArena sparse;
      SkeletonReplayer replayer(&skeleton);
      std::vector<Flow> flows;
      for (const uint64_t draw : {1u, 2u, 19u}) {
        draws.DrawInto(draw, &flows);
        full.FillFromFlows(graph, flows);
        sparse.FillFromDraw(graph, draws, draw, skeleton.extents());
        EXPECT_TRUE(ExtentsEqual(sparse, full, skeleton.extents()))
            << where << " draw " << draw;
        for (const Flow phi : {0.0, 4.0, 9.0}) {
          EXPECT_EQ(replayer.Count(sparse, phi), replayer.Count(full, phi))
              << where << " draw " << draw << " phi " << phi;
        }
      }
    }
    // The union serves every skeleton of the set at once.
    ASSERT_FALSE(all.empty()) << "graph " << g << " records no read block";
    FlowPrefixArena full;
    FlowPrefixArena sparse;
    std::vector<Flow> flows;
    draws.DrawInto(5, &flows);
    full.FillFromFlows(graph, flows);
    sparse.FillFromDraw(graph, draws, 5, all);
    for (const EnumerationSkeleton& skeleton : skeletons) {
      EXPECT_TRUE(ExtentsEqual(sparse, full, skeleton.extents()));
      SkeletonReplayer replayer(&skeleton);
      EXPECT_EQ(replayer.Count(sparse, 3.0), replayer.Count(full, 3.0));
    }
  }
}

TEST(SkeletonTest, UnionOfExtentsKeepsTheLongerPrefixPerPair) {
  std::vector<PrefixExtent> into = {{0, 0, 3}, {2, 10, 12}, {5, 30, 31}};
  UnionPrefixExtents({{1, 5, 6}, {2, 10, 14}, {5, 30, 30}, {7, 40, 41}},
                     &into);
  const std::vector<PrefixExtent> expected = {
      {0, 0, 3}, {1, 5, 6}, {2, 10, 14}, {5, 30, 31}, {7, 40, 41}};
  EXPECT_EQ(into, expected);
  UnionPrefixExtents({}, &into);
  EXPECT_EQ(into, expected);
}

TEST(SkeletonTest, TraceBudgetBypassesRecordingCleanly) {
  const TimeSeriesGraph graph = PaperFig7Graph();
  const Motif motif = *MotifCatalog::ByName("M(3,3)");
  const StructuralMatcher matcher(graph, motif);
  const std::vector<MatchBinding> matches = matcher.FindAllMatches();

  EnumerationSkeleton skeleton;
  EnumerationSkeleton::Options tiny;
  tiny.max_edges = 1;
  EXPECT_FALSE(skeleton.Record(graph, motif, 20, matches, nullptr, tiny));
  EXPECT_FALSE(skeleton.recorded());
  EXPECT_EQ(skeleton.num_edges(), 0u);
  EXPECT_TRUE(skeleton.Verify().ok()) << skeleton.Verify();

  // The same object records fine once the budget allows it.
  ASSERT_TRUE(skeleton.Record(graph, motif, 20, matches, nullptr));
  ASSERT_TRUE(skeleton.Verify().ok()) << skeleton.Verify();
  EXPECT_TRUE(skeleton.recorded());
  EXPECT_GT(skeleton.num_edges(), 0u);
  FlowPrefixArena arena;
  arena.FillFromGraph(graph);
  SkeletonReplayer replayer(&skeleton);
  EXPECT_EQ(replayer.Count(arena, 0.0),
            OracleCount(graph, motif, matches, 20, 0.0));
}

TEST(SkeletonTest, ArenaAndReplayGateOnTopologyIdentity) {
  const TimeSeriesGraph graph = RandomGraph(31, 5, 60, 40);
  const TimeSeriesGraph copy = graph.DeepCopy();  // fresh identity
  const Motif motif = *MotifCatalog::ByName("M(3,2)");
  const StructuralMatcher matcher(graph, motif);
  const std::vector<MatchBinding> matches = matcher.FindAllMatches();

  EnumerationSkeleton skeleton;
  ASSERT_TRUE(skeleton.Record(graph, motif, 8, matches, nullptr));
  ASSERT_TRUE(skeleton.Verify().ok()) << skeleton.Verify();
  EXPECT_EQ(skeleton.topology_identity(), graph.topology_identity());

  // An arena filled from a different topology identity must not be
  // replayed against this recording, and an arena must not be refilled
  // across identities.
  FlowPrefixArena copy_arena;
  copy_arena.FillFromGraph(copy);
  SkeletonReplayer replayer(&skeleton);
  EXPECT_DEATH(replayer.Count(copy_arena, 0.0), "Check failed");
  FlowPrefixArena arena;
  arena.FillFromGraph(graph);
  EXPECT_DEATH(arena.FillFromGraph(copy), "Check failed");
}

TEST(SkeletonTest, EmptyMatchListRecordsAndCountsZero) {
  const TimeSeriesGraph graph = PaperFig2Graph();
  const Motif motif = *MotifCatalog::ByName("M(3,3)");
  EnumerationSkeleton skeleton;
  ASSERT_TRUE(skeleton.Record(graph, motif, 10, {}, nullptr));
  ASSERT_TRUE(skeleton.Verify().ok()) << skeleton.Verify();
  EXPECT_EQ(skeleton.num_roots(), 0u);
  FlowPrefixArena arena;
  arena.FillFromGraph(graph);
  SkeletonReplayer replayer(&skeleton);
  EXPECT_EQ(replayer.Count(arena, 0.0), 0);
}

}  // namespace
}  // namespace flowmotif
