// The live-serving contract (DESIGN.md Sec. 11): a QueryService over an
// EpochLog must answer — at every sealed epoch — byte-identically to a
// solo QueryEngine run on the same sealed snapshot, while seals swap
// the served graph underneath concurrent submissions. Seeded random
// append schedules (the stream_equivalence_test idiom: non-decreasing
// timestamps with duplicates, growing vertex universes, varying epoch
// sizes) are replayed into a service with the generational cross-query
// tier enabled, interleaving submit / seal / submit. Also pinned down:
// in-flight and queued requests keep their submit-time snapshot across
// a seal, the completed-result cache invalidates exactly at real seals
// (no-op seals keep it warm), tier entries for series untouched by a
// seal stay warm across epochs, and a tiny generational tier rotates
// instead of freezing. The schedule suite is a TSan target (see
// .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "core/motif_catalog.h"
#include "engine/query_engine.h"
#include "graph/interaction_graph.h"
#include "graph/time_series_graph.h"
#include "serve/query_service.h"

namespace flowmotif {
namespace {

/// A reusable open-once gate for deterministic schedules.
class Gate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

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

TimeSeriesGraph BuildSeedGraph(const Schedule& schedule) {
  InteractionGraph multigraph;
  for (const InteractionGraph::Edge& e : schedule.seed) {
    const Status status = multigraph.AddEdge(e.src, e.dst, e.t, e.f);
    EXPECT_TRUE(status.ok()) << status;
  }
  return TimeSeriesGraph::Build(multigraph);
}

/// The deterministic payload comparison: everything a served query
/// returns must equal the solo run, in every mode.
void ExpectSameResult(const QueryResult& served, const QueryResult& solo,
                      const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(served.mode, solo.mode);
  EXPECT_EQ(served.stats.num_instances, solo.stats.num_instances);
  EXPECT_EQ(served.stats.num_structural_matches,
            solo.stats.num_structural_matches);
  EXPECT_EQ(served.stats.num_phi_prunes, solo.stats.num_phi_prunes);
  ASSERT_EQ(served.instances.size(), solo.instances.size());
  for (size_t i = 0; i < served.instances.size(); ++i) {
    EXPECT_EQ(served.instances[i], solo.instances[i]) << "instance " << i;
  }
  ASSERT_EQ(served.topk.size(), solo.topk.size());
  for (size_t i = 0; i < served.topk.size(); ++i) {
    EXPECT_EQ(served.topk[i].flow, solo.topk[i].flow) << "topk " << i;
    EXPECT_EQ(served.topk[i].instance, solo.topk[i].instance) << "topk " << i;
  }
  EXPECT_EQ(served.top1.found, solo.top1.found);
  EXPECT_EQ(served.top1.max_flow, solo.top1.max_flow);
  if (served.top1.found && solo.top1.found) {
    EXPECT_EQ(served.top1.best, solo.top1.best);
  }
}

struct Case {
  const char* motif_name;
  QueryOptions options;
};

std::vector<Case> MixedCases(Timestamp delta) {
  std::vector<Case> cases;
  QueryOptions count;
  count.mode = QueryMode::kCount;
  count.delta = delta;
  cases.push_back({"M(3,2)", count});

  QueryOptions topk;
  topk.mode = QueryMode::kTopK;
  topk.delta = delta;
  topk.k = 3;
  cases.push_back({"M(3,2)", topk});

  QueryOptions top1;
  top1.mode = QueryMode::kTop1;
  top1.delta = delta;
  cases.push_back({"M(5,4)", top1});
  return cases;
}

QueryResult SoloRun(const TimeSeriesGraph& graph, const Case& c) {
  const QueryEngine engine(graph);
  QueryOptions options = c.options;
  options.num_threads = 1;
  return engine.Run(*MotifCatalog::ByName(c.motif_name), options);
}

TEST(ServingEpochTest, SealedServingMatchesFreshEngineAcrossSchedules) {
  // The headline equivalence lock: 50 seeded append schedules, and at
  // every seal the concurrently served results (2 workers, generational
  // tier warm across epochs) are byte-identical to solo engine runs on
  // that sealed snapshot.
  constexpr Timestamp kDelta = 20;
  constexpr uint64_t kNumSchedules = 50;
  const std::vector<Case> cases = MixedCases(kDelta);

  for (uint64_t seed = 0; seed < kNumSchedules; ++seed) {
    const Schedule schedule = MakeSchedule(seed);
    ServiceConfig config;
    config.num_workers = 2;
    config.max_concurrent = 2;
    config.enable_dedup = false;         // every submission must run
    config.enable_result_cache = false;  // repeats across seals included
    QueryService service(BuildSeedGraph(schedule), config);

    for (size_t e = 0; e < schedule.epochs.size(); ++e) {
      for (const InteractionGraph::Edge& edge : schedule.epochs[e]) {
        const Status status = service.Append(edge);
        ASSERT_TRUE(status.ok()) << status;
      }
      const EpochLog::SealInfo info = service.SealEpoch();
      ASSERT_EQ(info.num_appended, schedule.epochs[e].size());
      ASSERT_EQ(service.epoch(), info.epoch);
      ASSERT_EQ(service.Snapshot().get(), info.graph.get());

      // Submit the whole mixed batch concurrently, then compare each
      // against a fresh solo engine on the sealed snapshot.
      std::vector<std::future<ServedResult>> futures;
      futures.reserve(cases.size());
      for (const Case& c : cases) {
        ServeRequest request{*MotifCatalog::ByName(c.motif_name), c.options};
        futures.push_back(service.Submit(std::move(request)));
      }
      for (size_t i = 0; i < cases.size(); ++i) {
        const ServedResult served = futures[i].get();
        ASSERT_FALSE(served.rejected);
        ASSERT_TRUE(served.result->termination.complete())
            << served.result->termination.ToString();
        EXPECT_EQ(served.epoch, info.epoch);
        ExpectSameResult(*served.result, SoloRun(*info.graph, cases[i]),
                         "schedule " + std::to_string(seed) + " epoch " +
                             std::to_string(e) + " case " + std::to_string(i));
      }
    }
  }
}

TEST(ServingEpochTest, InFlightAndQueuedRequestsKeepTheirSubmitSnapshot) {
  // A seal must not change what an already-submitted request answers:
  // both the running (gated) request and the one queued behind it were
  // submitted pre-seal, so both run against the pre-seal snapshot even
  // though the seal lands while they are in flight — the shared_ptr
  // keeps that snapshot alive after the service republishes.
  constexpr Timestamp kDelta = 20;
  const Schedule schedule = MakeSchedule(7);
  ServiceConfig config;
  config.num_workers = 2;
  config.max_concurrent = 1;  // the second request queues
  config.enable_dedup = false;
  config.enable_result_cache = false;
  QueryService service(BuildSeedGraph(schedule), config);

  const std::shared_ptr<const TimeSeriesGraph> before = service.Snapshot();
  const EpochId epoch_before = service.epoch();
  const Case count_case = MixedCases(kDelta)[0];

  Gate gate;
  ServeRequest running{*MotifCatalog::ByName(count_case.motif_name),
                       count_case.options};
  running.on_start = [&gate] { gate.Wait(); };
  std::future<ServedResult> running_future = service.Submit(std::move(running));
  ServeRequest queued{*MotifCatalog::ByName(count_case.motif_name),
                      count_case.options};
  std::future<ServedResult> queued_future = service.Submit(std::move(queued));

  for (const InteractionGraph::Edge& edge : schedule.epochs[0]) {
    ASSERT_TRUE(service.Append(edge).ok());
  }
  const EpochLog::SealInfo info = service.SealEpoch();
  ASSERT_GT(info.num_appended, 0u);
  ASSERT_NE(info.graph.get(), before.get());
  gate.Open();

  const QueryResult pre_seal_solo = SoloRun(*before, count_case);
  for (auto* future : {&running_future, &queued_future}) {
    const ServedResult served = future->get();
    ASSERT_TRUE(served.result->termination.complete());
    EXPECT_EQ(served.epoch, epoch_before);
    ExpectSameResult(*served.result, pre_seal_solo, "pre-seal submission");
  }

  // A post-seal submission serves the new snapshot.
  ServeRequest fresh{*MotifCatalog::ByName(count_case.motif_name),
                     count_case.options};
  const ServedResult after = service.Submit(std::move(fresh)).get();
  EXPECT_EQ(after.epoch, info.epoch);
  ExpectSameResult(*after.result, SoloRun(*info.graph, count_case),
                   "post-seal submission");
}

TEST(ServingEpochTest, ResultCacheInvalidatesExactlyAtRealSeals) {
  constexpr Timestamp kDelta = 20;
  const Schedule schedule = MakeSchedule(11);
  ServiceConfig config;
  config.num_workers = 1;  // serial: repeats submit after completion
  config.enable_dedup = false;
  QueryService service(BuildSeedGraph(schedule), config);
  const Case count_case = MixedCases(kDelta)[0];

  const auto submit = [&service, &count_case] {
    ServeRequest request{*MotifCatalog::ByName(count_case.motif_name),
                         count_case.options};
    return service.Submit(std::move(request)).get();
  };

  const ServedResult first = submit();
  ASSERT_TRUE(first.result->termination.complete());
  EXPECT_FALSE(first.from_result_cache);
  EXPECT_TRUE(submit().from_result_cache);

  // A no-op seal (empty tail) publishes nothing and invalidates
  // nothing: the repeat is still free.
  const EpochLog::SealInfo noop = service.SealEpoch();
  EXPECT_EQ(noop.num_appended, 0u);
  EXPECT_TRUE(submit().from_result_cache);
  EXPECT_EQ(service.Stats().seals, 0);

  // A real seal swaps the snapshot: the cached pre-seal result must not
  // answer post-seal submissions — the repeat re-runs on the new
  // snapshot and matches a fresh engine, then repeats are free again.
  for (const InteractionGraph::Edge& edge : schedule.epochs[0]) {
    ASSERT_TRUE(service.Append(edge).ok());
  }
  const EpochLog::SealInfo info = service.SealEpoch();
  ASSERT_GT(info.num_appended, 0u);
  const ServedResult reran = submit();
  EXPECT_FALSE(reran.from_result_cache);
  ExpectSameResult(*reran.result, SoloRun(*info.graph, count_case),
                   "post-seal rerun");
  EXPECT_TRUE(submit().from_result_cache);

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.seals, 1);
  EXPECT_EQ(stats.result_cache_hits, 3);
  EXPECT_EQ(stats.completed, 2);
}

TEST(ServingEpochTest, TierStaysWarmAcrossSealsForUntouchedSeries) {
  // StorageIdentity keys survive a seal for series the seal did not
  // touch: appending only to one hot pair and resealing must leave the
  // other pairs' tier entries warm — the repeated query hits the tier
  // again instead of recomputing every window list from scratch.
  InteractionGraph multigraph;
  // A deterministic seed with several M(3,2) paths over vertices 0..4.
  const InteractionGraph::Edge seed_edges[] = {
      {0, 1, 10, 2.0}, {1, 2, 12, 3.0}, {2, 3, 14, 1.0}, {3, 4, 16, 2.0},
      {1, 3, 18, 4.0}, {0, 2, 20, 1.0}, {2, 4, 22, 5.0}, {4, 0, 24, 2.0},
  };
  for (const InteractionGraph::Edge& e : seed_edges) {
    ASSERT_TRUE(multigraph.AddEdge(e.src, e.dst, e.t, e.f).ok());
  }

  ServiceConfig config;
  config.num_workers = 1;
  config.enable_dedup = false;
  config.enable_result_cache = false;  // the repeat must reach the tier
  QueryService service(TimeSeriesGraph::Build(multigraph), config);

  Case count_case = MixedCases(30)[0];
  const auto submit = [&service, &count_case] {
    ServeRequest request{*MotifCatalog::ByName(count_case.motif_name),
                         count_case.options};
    return service.Submit(std::move(request)).get();
  };

  ASSERT_TRUE(submit().result->termination.complete());  // warms the tier
  const ServiceStats cold = service.Stats();

  // Touch exactly one pair; every other series keeps its storage.
  ASSERT_TRUE(service.Append(0, 1, 30, 1.0).ok());
  const EpochLog::SealInfo info = service.SealEpoch();
  ASSERT_EQ(info.dirty_pairs.size(), 1u);

  const ServedResult warm = submit();
  ASSERT_TRUE(warm.result->termination.complete());
  ExpectSameResult(*warm.result, SoloRun(*info.graph, count_case),
                   "post-seal repeat");
  const ServiceStats after = service.Stats();
  // The post-seal repeat hit the tier for the untouched series' pairs.
  EXPECT_GT(after.tier_hits, cold.tier_hits);
}

TEST(ServingEpochTest, TinyGenerationalTierRotatesInsteadOfFreezing) {
  // With a tier cap far below the working set, the generational tier
  // must rotate (counted) instead of freezing on its first entries, and
  // keep serving byte-identical results.
  constexpr Timestamp kDelta = 20;
  const Schedule schedule = MakeSchedule(3);
  const std::vector<Case> cases = MixedCases(kDelta);

  ServiceConfig config;
  config.num_workers = 1;
  config.enable_dedup = false;
  config.enable_result_cache = false;
  config.tier_max_entries = 2;  // far below the pair working set
  QueryService service(BuildSeedGraph(schedule), config);
  for (const InteractionGraph::Edge& edge : schedule.epochs[0]) {
    ASSERT_TRUE(service.Append(edge).ok());
  }
  const EpochLog::SealInfo info = service.SealEpoch();

  for (int round = 0; round < 3; ++round) {
    for (const Case& c : cases) {
      ServeRequest request{*MotifCatalog::ByName(c.motif_name), c.options};
      const ServedResult served = service.Submit(std::move(request)).get();
      ASSERT_TRUE(served.result->termination.complete());
      ExpectSameResult(*served.result, SoloRun(*info.graph, c),
                       "round " + std::to_string(round));
    }
  }
  EXPECT_GT(service.Stats().tier_rotations, 0);
}

}  // namespace
}  // namespace flowmotif
