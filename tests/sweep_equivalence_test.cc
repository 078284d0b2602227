// RunSweep's contract: every cell of the delta x phi grid equals the
// corresponding independent single-point query byte-for-byte —
//  * against kCount runs (the mode a sweep cell replaces) and against
//    kEnumerate instance counts,
//  * for every catalog motif on seeded graphs,
//  * for thread counts {1, 4},
//  * with skeleton replay on and off (and under a forced recording
//    bypass), which also proves the replay and fallback paths agree.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/motif_catalog.h"
#include "core/window_cursor.h"
#include "engine/query_engine.h"
#include "engine/query_options.h"
#include "graph/interaction_graph.h"
#include "graph/time_series_graph.h"
#include "test_util.h"
#include "util/random.h"

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
    const Flow f = 1.0 + static_cast<Flow>(rng.NextBounded(6));
    const Status s = g.AddEdge(src, dst, t, f);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return TimeSeriesGraph::Build(g);
}

/// One single-point kCount query at (delta, phi).
int64_t PointCount(const QueryEngine& engine, const Motif& motif,
                   Timestamp delta, Flow phi, int threads) {
  QueryOptions options;
  options.mode = QueryMode::kCount;
  options.delta = delta;
  options.phi = phi;
  options.num_threads = threads;
  return engine.Run(motif, options).stats.num_instances;
}

TEST(SweepEquivalenceTest, GridMatchesPointQueriesForCatalogMotifs) {
  const SweepQuery sweep{{0, 4, 9, 15}, {0.0, 2.0, 4.0, 7.0}};
  for (const uint64_t seed : {5u, 21u}) {
    const TimeSeriesGraph graph = RandomGraph(seed, 6, 90, 50);
    const QueryEngine engine(graph);
    for (const Motif& motif : MotifCatalog::All()) {
      // Serial single-point reference grid.
      std::vector<int64_t> reference;
      for (const Timestamp delta : sweep.deltas) {
        for (const Flow phi : sweep.phis) {
          reference.push_back(PointCount(engine, motif, delta, phi, 1));
        }
      }
      for (const int threads : {1, 4}) {
        for (const bool replay : {true, false}) {
          QueryOptions options;
          options.num_threads = threads;
          options.skeleton_replay = replay;
          const SweepResult result = engine.RunSweep(motif, sweep, options);
          ASSERT_EQ(result.counts.size(), reference.size());
          EXPECT_EQ(result.counts, reference)
              << "seed=" << seed << " " << motif.name()
              << " threads=" << threads << " replay=" << replay;
          if (replay) {
            EXPECT_EQ(result.num_replayed_deltas,
                      static_cast<int64_t>(sweep.deltas.size()));
            EXPECT_EQ(result.num_fallback_cells, 0);
          } else {
            EXPECT_EQ(result.num_replayed_deltas, 0);
            EXPECT_EQ(result.num_fallback_cells,
                      static_cast<int64_t>(result.counts.size()));
          }
        }
      }
    }
  }
}

TEST(SweepEquivalenceTest, GridMatchesEnumerateInstanceCounts) {
  const TimeSeriesGraph graph = RandomGraph(33, 6, 100, 60);
  const QueryEngine engine(graph);
  const SweepQuery sweep{{3, 8, 14}, {0.0, 3.0, 6.0}};
  const Motif motif = *MotifCatalog::ByName("M(4,3)");

  QueryOptions sweep_options;
  const SweepResult result = engine.RunSweep(motif, sweep, sweep_options);

  for (size_t d = 0; d < sweep.deltas.size(); ++d) {
    for (size_t p = 0; p < sweep.phis.size(); ++p) {
      QueryOptions point;
      point.mode = QueryMode::kEnumerate;
      point.delta = sweep.deltas[d];
      point.phi = sweep.phis[p];
      EXPECT_EQ(result.count(d, p),
                engine.Run(motif, point).stats.num_instances)
          << "delta=" << sweep.deltas[d] << " phi=" << sweep.phis[p];
    }
  }
}

TEST(SweepEquivalenceTest, ForcedRecordingBypassStillMatches) {
  // max_skeleton_edges has no QueryOptions knob; a bypass is forced the
  // way production hits it — skeleton_replay=false exercises the exact
  // fallback code the budget bypass takes (the replay branch `continue`s
  // into it). This test pins the fallback's cell order and footprint.
  const TimeSeriesGraph graph = testing_util::PaperFig7Graph();
  const QueryEngine engine(graph);
  const SweepQuery sweep{{10, 20}, {2.0, 5.0, 9.0}};
  const Motif motif = *MotifCatalog::ByName("M(3,3)");

  QueryOptions on;
  QueryOptions off;
  off.skeleton_replay = false;
  const SweepResult with_replay = engine.RunSweep(motif, sweep, on);
  const SweepResult without_replay = engine.RunSweep(motif, sweep, off);
  EXPECT_EQ(with_replay.counts, without_replay.counts);
  EXPECT_EQ(without_replay.num_fallback_cells, 6);
  EXPECT_EQ(with_replay.num_structural_matches,
            without_replay.num_structural_matches);
}

TEST(SweepEquivalenceTest, FallbackCellsIgnoreATierOfAnotherDelta) {
  // A tier serves the one delta it is bound to. The fallback cells of
  // the other deltas must not read it: that would serve them another
  // delta's window lists (wrong counts) or trip the reader's delta
  // check. Every cell equals the tierless run.
  const SweepQuery sweep{{0, 4, 9, 15}, {0.0, 2.0, 4.0, 7.0}};
  const TimeSeriesGraph graph = RandomGraph(5, 6, 90, 50);
  const QueryEngine engine(graph);
  for (const char* name : {"M(3,3)", "M(4,3)", "M(5,4)"}) {
    const Motif motif = *MotifCatalog::ByName(name);
    for (const int threads : {1, 4}) {
      QueryOptions plain;
      plain.num_threads = threads;
      plain.skeleton_replay = false;
      const SweepResult reference = engine.RunSweep(motif, sweep, plain);
      SharedWindowCache tier(/*delta=*/9);
      QueryOptions tiered = plain;
      tiered.shared_cache_tier = &tier;
      const SweepResult result = engine.RunSweep(motif, sweep, tiered);
      EXPECT_EQ(result.termination.code, TerminationCode::kCompleted) << name;
      EXPECT_EQ(result.counts, reference.counts)
          << name << " threads=" << threads;
      EXPECT_EQ(result.num_fallback_cells,
                static_cast<int64_t>(result.counts.size()));
    }
  }
}

TEST(SweepEquivalenceTest, SingleCellGridEqualsOnePointQuery) {
  const TimeSeriesGraph graph = testing_util::PaperFig2Graph();
  const QueryEngine engine(graph);
  const Motif motif = *MotifCatalog::ByName("M(3,2)");
  const SweepQuery sweep{{12}, {4.0}};
  QueryOptions options;
  const SweepResult result = engine.RunSweep(motif, sweep, options);
  ASSERT_EQ(result.counts.size(), 1u);
  EXPECT_EQ(result.count(0, 0), PointCount(engine, motif, 12, 4.0, 1));
}

}  // namespace
}  // namespace flowmotif
