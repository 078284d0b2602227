// The streaming subsystem's contract: a StreamingMotifMonitor fed by
// appends and seals answers — at every sealed epoch — byte-identically
// to a batch QueryEngine run on the equivalently built static prefix
// graph. Random seeded append schedules (varying epoch sizes, duplicate
// timestamps, growing vertex sets, optional static seeds) are replayed
// edge for edge into both sides; counts, top-k entries, and
// sliding-horizon live counts are compared per epoch, with the batch
// side run at 1 and 4 threads. A brute-force EndTime filter over the
// fully materialized instance set checks horizon expiry independently.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "core/motif_catalog.h"
#include "engine/query_engine.h"
#include "graph/interaction_graph.h"
#include "graph/time_series_graph.h"
#include "stream/streaming_monitor.h"

namespace flowmotif {
namespace {

constexpr int kBatchThreadCounts[] = {1, 4};

struct Schedule {
  std::vector<InteractionGraph::Edge> seed;  // epoch 0 (may be empty)
  std::vector<std::vector<InteractionGraph::Edge>> epochs;
};

/// One seeded random append schedule: non-decreasing timestamps with
/// frequent duplicates, a vertex universe that can grow mid-stream
/// (new-pair and new-vertex seals), epoch sizes from 1 to ~10, and an
/// optional static seed prefix.
Schedule MakeSchedule(uint64_t seed_value) {
  std::mt19937_64 rng(seed_value);
  Schedule schedule;

  const int initial_vertices = 4 + static_cast<int>(rng() % 4);  // 4..7
  const int max_vertices = initial_vertices + static_cast<int>(rng() % 4);
  int vertices = initial_vertices;
  Timestamp t = static_cast<Timestamp>(rng() % 50);

  const auto random_edge = [&]() {
    // Occasionally let the universe grow so some seals change topology.
    if (vertices < max_vertices && rng() % 12 == 0) ++vertices;
    const VertexId src = static_cast<VertexId>(rng() % vertices);
    VertexId dst = static_cast<VertexId>(rng() % vertices);
    if (src == dst) dst = (dst + 1) % vertices;
    t += static_cast<Timestamp>(rng() % 4);  // 0 keeps duplicate times
    const Flow f = static_cast<Flow>(1 + rng() % 9);
    return InteractionGraph::Edge{src, dst, t, f};
  };

  const size_t num_seed_edges = rng() % 25;  // sometimes empty
  for (size_t i = 0; i < num_seed_edges; ++i) {
    schedule.seed.push_back(random_edge());
  }
  const size_t num_epochs = 4 + rng() % 6;  // 4..9
  schedule.epochs.resize(num_epochs);
  for (std::vector<InteractionGraph::Edge>& epoch : schedule.epochs) {
    const size_t n = 1 + rng() % 10;
    for (size_t i = 0; i < n; ++i) epoch.push_back(random_edge());
  }
  return schedule;
}

void ExpectLogVerified(const StreamingMotifMonitor& monitor,
                       const std::string& label) {
  const Status status = monitor.log().Verify();
  EXPECT_TRUE(status.ok()) << label << ": " << status;
}

/// Per-epoch check: the monitor's live aggregates against batch runs on
/// the equivalent static prefix graph at every thread count.
void ExpectEpochMatchesBatch(const StreamingMotifMonitor& monitor,
                             const Motif& motif,
                             const std::vector<InteractionGraph::Edge>& prefix,
                             const std::string& label) {
  InteractionGraph multigraph;
  for (const InteractionGraph::Edge& e : prefix) {
    const Status status = multigraph.AddEdge(e.src, e.dst, e.t, e.f);
    ASSERT_TRUE(status.ok()) << status;
  }
  const TimeSeriesGraph batch_graph = TimeSeriesGraph::Build(multigraph);
  const QueryEngine engine(batch_graph);
  const StreamOptions& sopts = monitor.options();

  // The sealed snapshot itself must equal the batch build, series for
  // series (the EpochLog byte-identity contract).
  const std::shared_ptr<const TimeSeriesGraph> snapshot = monitor.Snapshot();
  ASSERT_EQ(snapshot->num_vertices(), batch_graph.num_vertices()) << label;
  ASSERT_EQ(snapshot->num_pairs(), batch_graph.num_pairs()) << label;
  for (int64_t p = 0; p < batch_graph.num_pairs(); ++p) {
    const TimeSeriesGraph::PairEdge& a = snapshot->pair(p);
    const TimeSeriesGraph::PairEdge& b = batch_graph.pair(p);
    ASSERT_EQ(a.src, b.src) << label;
    ASSERT_EQ(a.dst, b.dst) << label;
    ASSERT_EQ(a.series.size(), b.series.size()) << label << " pair " << p;
    for (size_t i = 0; i < a.series.size(); ++i) {
      ASSERT_EQ(a.series.time(i), b.series.time(i)) << label;
      ASSERT_EQ(a.series.flow(i), b.series.flow(i)) << label;
    }
  }

  for (const int threads : kBatchThreadCounts) {
    QueryOptions qopts;
    qopts.delta = sopts.delta;
    qopts.phi = sopts.phi;
    qopts.num_threads = threads;

    qopts.mode = QueryMode::kCount;
    const QueryResult count = engine.Run(motif, qopts);
    ASSERT_EQ(monitor.TotalInstances(), count.stats.num_instances)
        << label << " threads=" << threads;

    // Top-k equivalence is checked at phi = 0 workloads only: the batch
    // top-k searcher runs the pure floating threshold of the paper and
    // ignores the static phi floor the monitor applies everywhere.
    if (sopts.phi == 0.0 && sopts.k >= 1) {
      qopts.mode = QueryMode::kTopK;
      qopts.k = sopts.k;
      const QueryResult topk = engine.Run(motif, qopts);
      const std::vector<TopKEntry> live = monitor.TopK();
      ASSERT_EQ(live.size(), topk.topk.size())
          << label << " threads=" << threads;
      for (size_t i = 0; i < live.size(); ++i) {
        ASSERT_DOUBLE_EQ(live[i].flow, topk.topk[i].flow)
            << label << " threads=" << threads << " entry " << i;
        ASSERT_EQ(live[i].instance, topk.topk[i].instance)
            << label << " threads=" << threads << " entry " << i;
      }
    }
  }

  // Horizon expiry against a brute-force filter of the full instance
  // set (the definition of "live": last interaction younger than
  // watermark - horizon).
  if (sopts.horizon > 0) {
    QueryOptions qopts;
    qopts.mode = QueryMode::kEnumerate;
    qopts.delta = sopts.delta;
    qopts.phi = sopts.phi;
    qopts.collect_limit = -1;
    const QueryResult all = engine.Run(motif, qopts);
    const Timestamp cutoff = monitor.watermark() - sopts.horizon;
    int64_t live = 0;
    for (const MotifInstance& instance : all.instances) {
      if (instance.EndTime() > cutoff) ++live;
    }
    ASSERT_EQ(monitor.LiveInstances(), live) << label;
  } else {
    ASSERT_EQ(monitor.LiveInstances(), monitor.TotalInstances()) << label;
  }
}

struct StreamCase {
  Motif motif;
  Timestamp delta;
  Flow phi;
  Timestamp horizon;
};

std::vector<StreamCase> StreamCases() {
  // Path motifs take the incremental affected-origin rescan; the
  // general fan-out forces the full-P1 topology refresh. phi > 0 cases
  // exercise flow pruning inside the settled/hot enumeration split;
  // horizon > 0 cases exercise the expiry ring buffer.
  return {
      {*Motif::Parse("0-1", "M(2,1)"), 8, 0.0, 0},
      {*MotifCatalog::ByName("M(3,2)"), 10, 0.0, 12},
      {*MotifCatalog::ByName("M(3,3)"), 14, 0.0, 0},
      {*MotifCatalog::ByName("M(3,2)"), 10, 6.0, 9},
      {*Motif::Parse("0>1,0>2", "fanout"), 12, 0.0, 15},
  };
}

TEST(StreamEquivalenceTest, EveryEpochMatchesBatchOnPrefixGraph) {
  // ~50 seeded schedules; each runs every case through every epoch.
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const Schedule schedule = MakeSchedule(seed);
    for (const StreamCase& c : StreamCases()) {
      StreamOptions sopts;
      sopts.delta = c.delta;
      sopts.phi = c.phi;
      sopts.k = 5;
      sopts.horizon = c.horizon;

      InteractionGraph seed_graph;
      for (const InteractionGraph::Edge& e : schedule.seed) {
        const Status status = seed_graph.AddEdge(e.src, e.dst, e.t, e.f);
        ASSERT_TRUE(status.ok()) << status;
      }
      StreamingMotifMonitor monitor(c.motif, sopts, seed_graph);

      std::vector<InteractionGraph::Edge> prefix = schedule.seed;
      if (!prefix.empty()) {
        ExpectEpochMatchesBatch(
            monitor, c.motif, prefix,
            "seed=" + std::to_string(seed) + " motif=" + c.motif.name() +
                " epoch=0");
        if (::testing::Test::HasFatalFailure()) return;
      }
      for (size_t epoch = 0; epoch < schedule.epochs.size(); ++epoch) {
        for (const InteractionGraph::Edge& e : schedule.epochs[epoch]) {
          monitor.Append(e);
          prefix.push_back(e);
        }
        ExpectLogVerified(monitor, "tail");
        const StreamingMotifMonitor::EpochStats stats = monitor.SealEpoch();
        ExpectLogVerified(monitor, "seal");
        ASSERT_EQ(stats.num_appended, schedule.epochs[epoch].size());
        ExpectEpochMatchesBatch(
            monitor, c.motif, prefix,
            "seed=" + std::to_string(seed) + " motif=" + c.motif.name() +
                " epoch=" + std::to_string(epoch + 1));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(StreamEquivalenceTest, MonitorOverEmptyStreamStartsEmpty) {
  StreamOptions sopts;
  sopts.delta = 10;
  StreamingMotifMonitor monitor(*MotifCatalog::ByName("M(3,2)"), sopts);
  EXPECT_EQ(monitor.TotalInstances(), 0);
  EXPECT_EQ(monitor.LiveInstances(), 0);
  EXPECT_TRUE(monitor.TopK().empty());
  EXPECT_EQ(monitor.epoch(), 0u);
  // Sealing with nothing buffered is a published no-op.
  const StreamingMotifMonitor::EpochStats stats = monitor.SealEpoch();
  ExpectLogVerified(monitor, "empty seal");
  EXPECT_EQ(stats.num_appended, 0u);
  EXPECT_EQ(monitor.TotalInstances(), 0);
}

TEST(StreamEquivalenceTest, EmptyStreamGrowsIntoBatchEquivalence) {
  // No seed at all: the monitor discovers vertices, pairs, and matches
  // purely from appends.
  StreamOptions sopts;
  sopts.delta = 10;
  sopts.k = 3;
  const Motif motif = *MotifCatalog::ByName("M(3,2)");
  StreamingMotifMonitor monitor(motif, sopts);

  const std::vector<InteractionGraph::Edge> edges = {
      {0, 1, 5, 2.0},  {1, 2, 7, 3.0},  {0, 1, 9, 1.0},
      {2, 3, 12, 4.0}, {1, 2, 14, 2.0}, {3, 0, 15, 6.0},
      {0, 1, 18, 5.0}, {1, 2, 18, 1.0},
  };
  std::vector<InteractionGraph::Edge> prefix;
  for (size_t i = 0; i < edges.size(); ++i) {
    monitor.Append(edges[i]);
    prefix.push_back(edges[i]);
    if (i % 2 == 1 || i + 1 == edges.size()) {
      ExpectLogVerified(monitor, "tail");
      monitor.SealEpoch();
      ExpectLogVerified(monitor, "seal");
      ExpectEpochMatchesBatch(monitor, motif, prefix,
                              "growing edge " + std::to_string(i));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(StreamEquivalenceTest, AlertsFireExactlyOnceAtSettlement) {
  // Alerts fire when an instance settles with flow >= the bound; later
  // seals must never re-fire them, and every settled instance above the
  // bound must fire exactly once by the end of the stream.
  StreamOptions sopts;
  sopts.delta = 8;
  sopts.alert_min_flow = 3.0;
  const Motif motif = *Motif::Parse("0-1-0", "M(2,2)");
  StreamingMotifMonitor monitor(motif, sopts);

  std::vector<StreamingMotifMonitor::Alert> alerts;
  monitor.SetAlertCallback(
      [&alerts](const StreamingMotifMonitor::Alert& alert) {
        alerts.push_back(alert);
      });

  const std::vector<InteractionGraph::Edge> edges = {
      {0, 1, 1, 5.0}, {1, 2, 3, 4.0},  {0, 1, 10, 2.0}, {1, 2, 12, 1.0},
      {0, 1, 30, 9.0}, {1, 2, 31, 8.0}, {2, 0, 60, 1.0},
  };
  std::vector<InteractionGraph::Edge> prefix;
  for (const InteractionGraph::Edge& e : edges) {
    monitor.Append(e);
    prefix.push_back(e);
    ExpectLogVerified(monitor, "tail");
    monitor.SealEpoch();
    ExpectLogVerified(monitor, "seal");
  }
  // Push the watermark far past every window so everything settles.
  monitor.Append(0, 1, 1000, 1.0);
  prefix.push_back({0, 1, 1000, 1.0});
  monitor.SealEpoch();
  ExpectLogVerified(monitor, "final seal");

  // Reference: all instances of the final graph with flow >= bound.
  InteractionGraph multigraph;
  for (const InteractionGraph::Edge& e : prefix) {
    ASSERT_TRUE(multigraph.AddEdge(e.src, e.dst, e.t, e.f).ok());
  }
  const TimeSeriesGraph graph = TimeSeriesGraph::Build(multigraph);
  QueryEngine engine(graph);
  QueryOptions qopts;
  qopts.mode = QueryMode::kEnumerate;
  qopts.delta = sopts.delta;
  qopts.collect_limit = -1;
  const QueryResult all = engine.Run(motif, qopts);
  std::vector<MotifInstance> expected;
  for (const MotifInstance& instance : all.instances) {
    if (instance.InstanceFlow() >= sopts.alert_min_flow) {
      expected.push_back(instance);
    }
  }
  ASSERT_EQ(alerts.size(), expected.size());
  // Every expected instance appears in the fired set exactly once
  // (settlement order interleaves epochs, so compare as multisets).
  for (const MotifInstance& instance : expected) {
    int found = 0;
    for (const StreamingMotifMonitor::Alert& alert : alerts) {
      if (alert.instance == instance) ++found;
    }
    ASSERT_EQ(found, 1);
  }
}

TEST(StreamEquivalenceTest, MalformedAppendIsRejectedAndStateUnchanged) {
  // Ingest is an untrusted boundary: malformed edges come back as
  // InvalidArgument and leave the monitor exactly as it was — the next
  // seal, and every aggregate, behaves as if they were never offered.
  StreamOptions sopts;
  sopts.delta = 10;
  sopts.k = 3;
  const Motif motif = *MotifCatalog::ByName("M(3,2)");
  StreamingMotifMonitor monitor(motif, sopts);

  ASSERT_TRUE(monitor.Append(0, 1, 5, 2.0).ok());
  ASSERT_TRUE(monitor.Append(1, 2, 7, 3.0).ok());
  ExpectLogVerified(monitor, "tail");
  monitor.SealEpoch();
  ExpectLogVerified(monitor, "seal");
  const int64_t total_before = monitor.TotalInstances();
  const Timestamp watermark_before = monitor.watermark();

  // Timestamp behind the watermark, negative ids, non-positive flow.
  EXPECT_EQ(monitor.Append(0, 1, 3, 1.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(monitor.Append(-1, 2, 9, 1.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(monitor.Append(0, -2, 9, 1.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(monitor.Append(0, 1, 9, 0.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(monitor.Append(InteractionGraph::Edge{0, 1, 9, -4.0}).code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(monitor.watermark(), watermark_before);
  ExpectLogVerified(monitor, "after rejected appends");
  const StreamingMotifMonitor::EpochStats stats = monitor.SealEpoch();
  ExpectLogVerified(monitor, "no-op seal");
  EXPECT_EQ(stats.num_appended, 0u);
  EXPECT_EQ(monitor.TotalInstances(), total_before);

  // Well-formed appends still succeed after rejections, and the stream
  // stays batch-equivalent.
  ASSERT_TRUE(monitor.Append(0, 1, 9, 1.0).ok());
  ASSERT_TRUE(monitor.Append(1, 2, 14, 2.0).ok());
  ExpectLogVerified(monitor, "tail after rejections");
  monitor.SealEpoch();
  ExpectLogVerified(monitor, "seal after rejections");
  const std::vector<InteractionGraph::Edge> prefix = {
      {0, 1, 5, 2.0}, {1, 2, 7, 3.0}, {0, 1, 9, 1.0}, {1, 2, 14, 2.0}};
  ExpectEpochMatchesBatch(monitor, motif, prefix, "after rejections");
}

}  // namespace
}  // namespace flowmotif
