// Epoch-layer invariants of the append-friendly storage: ExtendWith /
// EpochLog seals produce graphs byte-identical to batch builds while
// sharing untouched storage by identity; time slices cut exactly at
// epoch segment boundaries; graph_io round-trips an epoched graph so a
// reloaded log can re-seal and continue the stream; and the incremental
// window scan equals the batch scan across any settle schedule.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/sliding_window.h"
#include "graph/epoch_log.h"
#include "graph/graph_io.h"
#include "graph/interaction_graph.h"
#include "graph/time_series_graph.h"
#include "graph/time_slice.h"
#include "test_util.h"

namespace flowmotif {
namespace {

using testing_util::MakeGraph;

void ExpectSameGraph(const TimeSeriesGraph& a, const TimeSeriesGraph& b,
                     const std::string& label) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices()) << label;
  ASSERT_EQ(a.num_pairs(), b.num_pairs()) << label;
  for (int64_t p = 0; p < a.num_pairs(); ++p) {
    ASSERT_EQ(a.pair(p).src, b.pair(p).src) << label;
    ASSERT_EQ(a.pair(p).dst, b.pair(p).dst) << label;
    ASSERT_EQ(a.pair(p).series.size(), b.pair(p).series.size())
        << label << " pair " << p;
    for (size_t i = 0; i < a.pair(p).series.size(); ++i) {
      ASSERT_EQ(a.pair(p).series.time(i), b.pair(p).series.time(i)) << label;
      ASSERT_EQ(a.pair(p).series.flow(i), b.pair(p).series.flow(i)) << label;
    }
  }
}

void ExpectVerified(const TimeSeriesGraph& g, const std::string& label) {
  const Status status = g.Verify();
  EXPECT_TRUE(status.ok()) << label << ": " << status;
}

void ExpectLogVerified(const EpochLog& log, const std::string& label) {
  const Status status = log.Verify();
  EXPECT_TRUE(status.ok()) << label << ": " << status;
}

TEST(EpochGraphTest, ExtendWithEqualsBatchBuildAndSharesUntouchedStorage) {
  const TimeSeriesGraph base = MakeGraph({
      {0, 1, 5, 2.0}, {0, 1, 9, 1.0}, {1, 2, 7, 3.0}, {2, 0, 8, 4.0},
  });
  // Appends touch (0,1), add the new pair (2,3), and grow the universe.
  std::vector<InteractionGraph::Edge> tail = {
      {0, 1, 10, 5.0}, {2, 3, 11, 1.0}, {0, 1, 11, 2.0},
  };
  const TimeSeriesGraph extended = TimeSeriesGraph::ExtendWith(
      base, tail, /*num_vertices=*/4, /*epoch=*/1);

  const TimeSeriesGraph batch = MakeGraph({
      {0, 1, 5, 2.0}, {0, 1, 9, 1.0}, {1, 2, 7, 3.0}, {2, 0, 8, 4.0},
      {0, 1, 10, 5.0}, {2, 3, 11, 1.0}, {0, 1, 11, 2.0},
  });
  ExpectSameGraph(extended, batch, "extend vs batch");
  ExpectVerified(base, "base");
  ExpectVerified(batch, "batch");
  ExpectVerified(extended, "extended (index rebuilt)");

  // Untouched series share timestamp storage with the base by identity;
  // dirty series get fresh storage stamped with the new epoch.
  const EdgeSeries* base_12 = base.FindSeries(1, 2);
  const EdgeSeries* ext_12 = extended.FindSeries(1, 2);
  ASSERT_EQ(base_12->timestamp_identity(), ext_12->timestamp_identity());
  const EdgeSeries* base_01 = base.FindSeries(0, 1);
  const EdgeSeries* ext_01 = extended.FindSeries(0, 1);
  ASSERT_NE(base_01->timestamp_identity(), ext_01->timestamp_identity());
  ASSERT_EQ(ext_01->timestamp_identity().epoch, 1u);
  // The new pair forced a topology rebuild under the new epoch.
  ASSERT_NE(extended.topology_identity(), base.topology_identity());
  ASSERT_EQ(extended.topology_identity().epoch, 1u);

  // Flow-only appends (no new pair, no new vertex) keep the topology
  // identity: caches keyed on it stay warm.
  const TimeSeriesGraph flow_only = TimeSeriesGraph::ExtendWith(
      base, {{0, 1, 12, 1.0}}, base.num_vertices(), /*epoch=*/1);
  ASSERT_EQ(flow_only.topology_identity(), base.topology_identity());
  ExpectVerified(flow_only, "flow-only (index shared)");
}

TEST(EpochGraphTest, SealedEpochsMatchBatchPrefixBuilds) {
  InteractionGraph seed;
  ASSERT_TRUE(seed.AddEdge(0, 1, 1, 2.0).ok());
  ASSERT_TRUE(seed.AddEdge(1, 2, 3, 1.0).ok());
  EpochLog log(seed);
  ExpectLogVerified(log, "seed");
  std::vector<InteractionGraph::Edge> all = {
      {0, 1, 1, 2.0}, {1, 2, 3, 1.0},
  };

  const std::vector<std::vector<InteractionGraph::Edge>> epochs = {
      {{2, 0, 4, 5.0}, {0, 1, 4, 1.0}},   // dirty + new pair, same time
      {{1, 2, 6, 2.0}},                   // dirty only
      {{3, 0, 9, 4.0}, {0, 3, 9, 4.0}},   // new vertex
  };
  for (size_t e = 0; e < epochs.size(); ++e) {
    for (const InteractionGraph::Edge& edge : epochs[e]) {
      log.Append(edge);
      all.push_back(edge);
    }
    ExpectLogVerified(log, "tail " + std::to_string(e + 1));
    const EpochLog::SealInfo info = log.SealEpoch();
    ExpectLogVerified(log, "seal " + std::to_string(e + 1));
    ASSERT_EQ(info.epoch, e + 1);
    ASSERT_EQ(info.num_appended, epochs[e].size());
    InteractionGraph prefix;
    for (const InteractionGraph::Edge& edge : all) {
      ASSERT_TRUE(prefix.AddEdge(edge.src, edge.dst, edge.t, edge.f).ok());
    }
    ExpectSameGraph(*info.graph, TimeSeriesGraph::Build(prefix),
                    "epoch " + std::to_string(e + 1));
    ExpectVerified(*info.graph, "epoch " + std::to_string(e + 1));
  }

  // Empty tail: sealing is a no-op that republishes the same snapshot.
  const std::shared_ptr<const TimeSeriesGraph> before = log.Snapshot();
  const EpochLog::SealInfo noop = log.SealEpoch();
  ASSERT_EQ(noop.num_appended, 0u);
  ASSERT_EQ(noop.epoch, log.epoch());
  ASSERT_EQ(log.Snapshot().get(), before.get());

  // Ingest is an untrusted boundary: a non-monotone timestamp, a
  // negative vertex id, or a non-positive flow is rejected with
  // InvalidArgument, the tail stays unchanged, and later well-formed
  // appends (and seals) still succeed.
  const Timestamp watermark_before = log.watermark();
  EXPECT_EQ(log.Append(0, 1, 0, 1.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(log.Append(-1, 1, 20, 1.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(log.Append(0, -2, 20, 1.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(log.Append(0, 1, 20, 0.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(log.Append(0, 1, 20, -1.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(log.tail_size(), 0u);
  EXPECT_EQ(log.watermark(), watermark_before);
  ASSERT_TRUE(log.Append(0, 1, 20, 1.0).ok());
  ExpectLogVerified(log, "after rejected appends");
  const EpochLog::SealInfo after = log.SealEpoch();
  ExpectLogVerified(log, "after reseal");
  EXPECT_EQ(after.num_appended, 1u);
  EXPECT_EQ(after.watermark, 20);
}

TEST(EpochGraphTest, AppendRejectsNonFiniteFlowWithoutMutating) {
  // Regression: `!(f > 0.0)` let +inf into the tail. A rejected append
  // must leave the tail and the watermark exactly as they were, even
  // when its timestamp would have advanced the watermark.
  EpochLog log;
  ASSERT_TRUE(log.Append(0, 1, 10, 2.0).ok());
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(log.Append(1, 2, 20, inf).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(log.Append(1, 2, 20, -inf).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(log.Append(1, 2, 20, std::numeric_limits<double>::quiet_NaN())
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(log.tail_size(), 1u);
  EXPECT_EQ(log.watermark(), 10);
  // A finite append at the same time still goes through.
  ASSERT_TRUE(log.Append(1, 2, 20, 3.0).ok());
  EXPECT_EQ(log.watermark(), 20);
  ExpectLogVerified(log, "tail");
  const EpochLog::SealInfo info = log.SealEpoch();
  ExpectLogVerified(log, "seal");
  EXPECT_EQ(info.num_appended, 2u);
}

TEST(EpochGraphTest, TimeSlicesCutExactlyAtEpochBoundaries) {
  // Seal epochs at times 5, 10, 15; slicing the final snapshot at each
  // epoch's watermark must reproduce that epoch's snapshot exactly
  // (including a slice inside a series whose storage the later epochs
  // replaced).
  EpochLog log;
  std::vector<std::shared_ptr<const TimeSeriesGraph>> snapshots;
  std::vector<Timestamp> watermarks;
  const std::vector<std::vector<InteractionGraph::Edge>> epochs = {
      {{0, 1, 2, 1.0}, {1, 2, 5, 2.0}},
      {{0, 1, 7, 3.0}, {2, 0, 10, 1.0}},
      {{1, 2, 12, 2.0}, {0, 1, 15, 4.0}},
  };
  for (const std::vector<InteractionGraph::Edge>& epoch : epochs) {
    for (const InteractionGraph::Edge& edge : epoch) log.Append(edge);
    ExpectLogVerified(log, "tail");
    const EpochLog::SealInfo info = log.SealEpoch();
    ExpectLogVerified(log, "seal");
    snapshots.push_back(info.graph);
    watermarks.push_back(info.watermark);
  }
  const TimeSeriesGraph& final_graph = *snapshots.back();
  for (size_t e = 0; e < snapshots.size(); ++e) {
    const TimeSeriesGraph slice = SliceByMaxTime(final_graph, watermarks[e]);
    // Vertex universes may differ (slices keep all vertices; earlier
    // epochs had fewer), so compare the pair/series content only.
    ASSERT_EQ(slice.num_pairs(), snapshots[e]->num_pairs()) << e;
    for (int64_t p = 0; p < slice.num_pairs(); ++p) {
      const EdgeSeries& a = slice.pair(p).series;
      const EdgeSeries& b = snapshots[e]->pair(p).series;
      ASSERT_EQ(a.size(), b.size()) << "epoch " << e << " pair " << p;
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.time(i), b.time(i));
        ASSERT_EQ(a.flow(i), b.flow(i));
      }
    }
  }
}

TEST(EpochGraphTest, SaveReloadAndResealContinuesTheStream) {
  // An epoched graph written with graph_io, reloaded into a fresh log,
  // and re-sealed with more appends must equal the batch build of the
  // whole edge set — the crash-recovery path of a streaming deployment.
  EpochLog log;
  log.Append(0, 1, 3, 2.0);
  log.Append(1, 2, 5, 1.0);
  log.SealEpoch();
  log.Append(2, 0, 8, 4.0);
  ExpectLogVerified(log, "tail");
  const EpochLog::SealInfo sealed = log.SealEpoch();
  ExpectLogVerified(log, "seal");

  const std::string path = ::testing::TempDir() + "/epoched_graph.txt";
  ASSERT_TRUE(SaveTimeSeriesGraph(*sealed.graph, path).ok());
  StatusOr<InteractionGraph> reloaded = LoadInteractionGraph(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  std::remove(path.c_str());

  ExpectSameGraph(TimeSeriesGraph::Build(*reloaded), *sealed.graph,
                  "reload");

  EpochLog resumed(*reloaded);
  ASSERT_EQ(resumed.watermark(), sealed.watermark);
  resumed.Append(0, 1, 9, 5.0);
  resumed.Append(3, 1, 11, 1.0);
  ExpectLogVerified(resumed, "resumed tail");
  const EpochLog::SealInfo resealed = resumed.SealEpoch();
  ExpectLogVerified(resumed, "resumed seal");
  const TimeSeriesGraph batch = MakeGraph({
      {0, 1, 3, 2.0}, {1, 2, 5, 1.0}, {2, 0, 8, 4.0},
      {0, 1, 9, 5.0}, {3, 1, 11, 1.0},
  });
  ExpectSameGraph(*resealed.graph, batch, "reseal");
}

TEST(EpochGraphTest, AdvanceProcessedWindowsEqualsBatchScanOnAnySchedule) {
  // Random series pairs and random settle schedules: the concatenated
  // settled output plus the final hot list must equal the batch window
  // scan element for element, at every intermediate step.
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    // Build a full edge timeline, then reveal prefixes in random steps.
    std::vector<Interaction> first_all;
    std::vector<Interaction> last_all;
    Timestamp t = 0;
    const size_t nf = 1 + rng() % 12;
    const size_t nl = 1 + rng() % 12;
    for (size_t i = 0; i < nf; ++i) {
      t += static_cast<Timestamp>(rng() % 3);
      first_all.push_back({t, 1.0});
    }
    t = 0;
    for (size_t i = 0; i < nl; ++i) {
      t += static_cast<Timestamp>(rng() % 3);
      last_all.push_back({t, 1.0});
    }
    const Timestamp delta = static_cast<Timestamp>(rng() % 6);

    // Watermark steps: reveal every element with time < w, settle
    // windows with end < w — the exact seal semantics.
    std::vector<Timestamp> watermarks;
    for (Timestamp w = 1; w <= t + delta + 2;
         w += 1 + static_cast<Timestamp>(rng() % 3)) {
      watermarks.push_back(w);
    }
    watermarks.push_back(std::numeric_limits<Timestamp>::max());

    WindowScanState state;
    std::vector<Window> settled_all;
    std::vector<Window> hot;
    for (const Timestamp w : watermarks) {
      std::vector<Interaction> f_vis, l_vis;
      for (const Interaction& x : first_all) {
        if (x.t < w) f_vis.push_back(x);
      }
      for (const Interaction& x : last_all) {
        if (x.t < w) l_vis.push_back(x);
      }
      const EdgeSeries first(f_vis);
      const EdgeSeries last(l_vis);
      std::vector<Window> settled;
      AdvanceProcessedWindows(first, last, delta, w, &state, &settled, &hot);
      settled_all.insert(settled_all.end(), settled.begin(), settled.end());

      // Invariant at every step: settled-so-far + hot == batch scan of
      // the currently visible series.
      std::vector<Window> batch = ComputeProcessedWindows(first, last, delta);
      std::vector<Window> incremental = settled_all;
      incremental.insert(incremental.end(), hot.begin(), hot.end());
      ASSERT_EQ(incremental.size(), batch.size())
          << "trial " << trial << " watermark " << w;
      for (size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(incremental[i], batch[i])
            << "trial " << trial << " watermark " << w << " window " << i;
      }
    }
    // Terminal watermark: everything settled, nothing hot.
    ASSERT_TRUE(hot.empty()) << "trial " << trial;
  }
}

}  // namespace
}  // namespace flowmotif
