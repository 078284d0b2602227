// Serving-layer benchmarks (DESIGN.md Sec. 11): QueryService end-to-end
// rows for CI's perf gate plus the tier ablation the layer exists for.
//  * BM_ServeRepeatedCount_TierOn vs _TierOff — the same kCount query
//    submitted repeatedly through a 1-worker (inline, deterministic)
//    service with the cross-query window-cache tier enabled vs
//    disabled. The motif is non-interior, so without the tier every
//    run recomputes every window list privately; with the tier the
//    steady state is all hits. TierOn beating TierOff is the point of
//    the tier — the pair makes the win a gated number, not a claim.
//  * BM_DirectEngineCount — the same query through a bare
//    QueryEngine::Run, the floor the serving rows sit on; the gap to
//    TierOff is the service round-trip overhead (admission, future,
//    stats).
//  * BM_ServeMixedConcurrent — a batch of distinct queries per
//    iteration through a 4-worker service: the QPS row. Latency
//    percentiles ride along as counters (p50_ms / p99_ms) computed
//    from each submission's ServedResult.total_seconds; tier_hit_rate
//    reports the cross-query tier's steady-state effectiveness.
//  * BM_ServeSealUnderLoad — per iteration: a query in flight, a burst
//    of appends, a SealEpoch, and a post-seal query. The row is the
//    cost of publishing a new epoch under live traffic (extend-build +
//    tier sweep + result-cache invalidation + the post-seal query on a
//    cold result cache).
//  * BM_ServeTierAcrossSeals — appends touch one hot pair per seal, so
//    the rest of the tier must stay warm: tier_hit_rate near 1 is the
//    gated claim that epoch-stamped identity keys survive seals.
//  * BM_ServeLongMixed_TierGenerational — a mixed workload over a
//    deliberately undersized tier (1024 entries per generation, under
//    the workload's pair working set): the generational clock rotates
//    and then retains the re-touched working set across two
//    generations instead of freezing on whatever filled it first.
//
// The completed-result cache is off in every row that re-submits an
// identical query — these rows measure the execution path, and a
// result-cache hit would short-circuit it.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <future>
#include <vector>

#include "core/motif_catalog.h"
#include "engine/query_engine.h"
#include "engine/query_options.h"
#include "gen/presets.h"
#include "graph/time_series_graph.h"
#include "serve/query_service.h"

namespace flowmotif {
namespace {

const TimeSeriesGraph& ServingGraph() {
  static const TimeSeriesGraph* const kGraph = new TimeSeriesGraph(
      GenerateDataset(GetPreset(DatasetKind::kPassenger), 0.25));
  return *kGraph;
}

constexpr Timestamp kDelta = 900;

QueryOptions CountOptions() {
  QueryOptions options;
  options.mode = QueryMode::kCount;
  options.delta = kDelta;
  options.phi = 2.0;
  return options;
}

ServeRequest MakeRequest(const Motif& motif, const QueryOptions& options) {
  return ServeRequest{motif, options, std::string(), nullptr};
}

/// Sorts `latencies` and attaches p50/p99 (milliseconds) to the row.
void ReportLatencyCounters(benchmark::State& state,
                           std::vector<double>* latencies) {
  if (latencies->empty()) return;
  std::sort(latencies->begin(), latencies->end());
  const auto at = [&](double pct) {
    const size_t index = static_cast<size_t>(
        pct * static_cast<double>(latencies->size() - 1) + 0.5);
    return (*latencies)[index] * 1e3;
  };
  state.counters["p50_ms"] = at(0.50);
  state.counters["p99_ms"] = at(0.99);
}

void ReportTierHitRate(benchmark::State& state, const QueryService& service) {
  const ServiceStats stats = service.Stats();
  state.counters["tier_hit_rate"] =
      stats.tier_lookups > 0 ? static_cast<double>(stats.tier_hits) /
                                   static_cast<double>(stats.tier_lookups)
                             : 0.0;
}

// ---------------------------------------------------------------------
// Tier ablation: identical repeated query, tier on vs off. One worker
// means Submit runs the query inline on this thread — no scheduling
// noise, so the pair difference is the window-list recompute the tier
// removes. Dedup is off so every submission really executes. One
// untimed warm-up submission moves the tier's one-time fill out of the
// measured steady state.

void RunRepeatedCount(benchmark::State& state, bool tier_on) {
  ServiceConfig config;
  config.num_workers = 1;
  config.enable_cache_tier = tier_on;
  config.enable_dedup = false;
  config.enable_result_cache = false;  // repeats must re-execute
  QueryService service(ServingGraph(), config);
  const Motif motif = *MotifCatalog::ByName("M(3,2)");

  service.Submit(MakeRequest(motif, CountOptions())).get();  // warm-up

  std::vector<double> latencies;
  for (auto _ : state) {
    const ServedResult served =
        service.Submit(MakeRequest(motif, CountOptions())).get();
    benchmark::DoNotOptimize(served.result->stats.num_instances);
    latencies.push_back(served.total_seconds);
  }
  state.SetItemsProcessed(state.iterations());
  ReportLatencyCounters(state, &latencies);
  ReportTierHitRate(state, service);
}

void BM_ServeRepeatedCount_TierOn(benchmark::State& state) {
  RunRepeatedCount(state, /*tier_on=*/true);
}
BENCHMARK(BM_ServeRepeatedCount_TierOn);

void BM_ServeRepeatedCount_TierOff(benchmark::State& state) {
  RunRepeatedCount(state, /*tier_on=*/false);
}
BENCHMARK(BM_ServeRepeatedCount_TierOff);

// The floor: the same query through a bare engine, no service.
void BM_DirectEngineCount(benchmark::State& state) {
  const QueryEngine engine(ServingGraph());
  const Motif motif = *MotifCatalog::ByName("M(3,2)");
  const QueryOptions options = CountOptions();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Run(motif, options).stats.num_instances);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectEngineCount);

// ---------------------------------------------------------------------
// Concurrent mixed workload: per iteration, a batch of distinct
// queries (two motifs x two deltas x two modes) fans out over four
// workers and the iteration completes when the whole batch has. The
// row's items/s is the service's QPS on this workload; p50/p99 are
// per-query submit-to-completion latencies.

void BM_ServeMixedConcurrent(benchmark::State& state) {
  ServiceConfig config;
  config.num_workers = 4;
  config.enable_dedup = false;         // every submission is a real run
  config.enable_result_cache = false;  // idem across iterations
  QueryService service(ServingGraph(), config);

  struct Case {
    const char* motif_name;
    QueryMode mode;
    Timestamp delta;
  };
  const std::vector<Case> cases = {
      {"M(3,2)", QueryMode::kCount, kDelta},
      {"M(3,2)", QueryMode::kTop1, kDelta},
      {"M(3,2)", QueryMode::kCount, kDelta / 2},
      {"M(5,4)", QueryMode::kCount, kDelta},
      {"M(5,4)", QueryMode::kTop1, kDelta},
      {"M(5,4)", QueryMode::kCount, kDelta / 2},
      {"M(3,3)", QueryMode::kCount, kDelta},
      {"M(3,3)", QueryMode::kTop1, kDelta},
  };

  std::vector<double> latencies;
  std::vector<std::future<ServedResult>> futures;
  futures.reserve(cases.size());
  for (auto _ : state) {
    for (const Case& c : cases) {
      QueryOptions options = CountOptions();
      options.mode = c.mode;
      options.delta = c.delta;
      futures.push_back(service.Submit(
          MakeRequest(*MotifCatalog::ByName(c.motif_name), options)));
    }
    for (std::future<ServedResult>& future : futures) {
      const ServedResult served = future.get();
      benchmark::DoNotOptimize(served.result->termination.code);
      latencies.push_back(served.total_seconds);
    }
    futures.clear();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cases.size()));
  ReportLatencyCounters(state, &latencies);
  ReportTierHitRate(state, service);
}
BENCHMARK(BM_ServeMixedConcurrent)->UseRealTime();

// ---------------------------------------------------------------------
// Live serving: seal latency under load, tier warmth across seals, and
// the generational tier on an undersized cap. The log grows with
// every seal, so the seal rows rebuild the service every kRebuildEvery
// iterations (untimed) to keep the measured graph size bounded.

constexpr int kRebuildEvery = 64;

void BM_ServeSealUnderLoad(benchmark::State& state) {
  ServiceConfig config;
  config.num_workers = 2;
  config.enable_dedup = false;
  const Motif motif = *MotifCatalog::ByName("M(3,2)");
  const Timestamp base_t = ServingGraph().ComputeStats().max_time;

  std::unique_ptr<QueryService> service;
  Timestamp next_t = base_t;
  int since_rebuild = kRebuildEvery;
  std::vector<double> latencies;
  for (auto _ : state) {
    if (since_rebuild == kRebuildEvery) {
      state.PauseTiming();
      service = std::make_unique<QueryService>(ServingGraph(), config);
      next_t = base_t;
      since_rebuild = 0;
      state.ResumeTiming();
    }
    // A query is in flight on one worker while the writer appends,
    // seals, and serves a post-seal query — the seal-under-load shape.
    std::future<ServedResult> inflight =
        service->Submit(MakeRequest(motif, CountOptions()));
    for (int i = 0; i < 8; ++i) {
      const Status s = service->Append(i % 16, (i + 1) % 16, next_t++, 1.0);
      if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    }
    const EpochLog::SealInfo info = service->SealEpoch();
    benchmark::DoNotOptimize(info.epoch);
    const ServedResult post =
        service->Submit(MakeRequest(motif, CountOptions())).get();
    benchmark::DoNotOptimize(post.result->termination.code);
    latencies.push_back(post.total_seconds);
    inflight.get();
    ++since_rebuild;
  }
  state.SetItemsProcessed(state.iterations());
  ReportLatencyCounters(state, &latencies);
}
BENCHMARK(BM_ServeSealUnderLoad)->UseRealTime();

void BM_ServeTierAcrossSeals(benchmark::State& state) {
  // Each iteration dirties exactly one pair, seals, and re-runs the
  // same query: every series but the hot pair keeps its storage
  // identity, so the tier should answer almost every lookup —
  // tier_hit_rate is the row's claim.
  ServiceConfig config;
  config.num_workers = 1;
  config.enable_dedup = false;
  config.enable_result_cache = false;  // the repeat must re-execute
  const Motif motif = *MotifCatalog::ByName("M(3,2)");
  const Timestamp base_t = ServingGraph().ComputeStats().max_time;

  std::unique_ptr<QueryService> service;
  Timestamp next_t = base_t;
  int since_rebuild = kRebuildEvery;
  for (auto _ : state) {
    if (since_rebuild == kRebuildEvery) {
      state.PauseTiming();
      service = std::make_unique<QueryService>(ServingGraph(), config);
      next_t = base_t;
      service->Submit(MakeRequest(motif, CountOptions())).get();  // warm-up
      since_rebuild = 0;
      state.ResumeTiming();
    }
    const Status s = service->Append(0, 1, next_t++, 1.0);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    const EpochLog::SealInfo info = service->SealEpoch();
    benchmark::DoNotOptimize(info.epoch);
    const ServedResult served =
        service->Submit(MakeRequest(motif, CountOptions())).get();
    benchmark::DoNotOptimize(served.result->stats.num_instances);
    ++since_rebuild;
  }
  state.SetItemsProcessed(state.iterations());
  ReportTierHitRate(state, *service);
}
BENCHMARK(BM_ServeTierAcrossSeals);

// Long-lived mixed workload over a deliberately tiny tier: the
// generational clock keeps admitting the working set's recent pairs
// instead of freezing on whatever filled it first.
void BM_ServeLongMixed_TierGenerational(benchmark::State& state) {
  ServiceConfig config;
  config.num_workers = 1;
  config.enable_dedup = false;
  config.enable_result_cache = false;
  config.tier_max_entries = 1024;
  QueryService service(ServingGraph(), config);

  struct Case {
    const char* motif_name;
    QueryMode mode;
  };
  const std::vector<Case> cases = {
      {"M(3,2)", QueryMode::kCount}, {"M(3,3)", QueryMode::kCount},
      {"M(5,4)", QueryMode::kCount}, {"M(3,2)", QueryMode::kTop1},
      {"M(5,4)", QueryMode::kTop1},
  };

  std::vector<double> latencies;
  for (auto _ : state) {
    for (const Case& c : cases) {
      QueryOptions options = CountOptions();
      options.mode = c.mode;
      const ServedResult served =
          service.Submit(MakeRequest(*MotifCatalog::ByName(c.motif_name),
                                     options))
              .get();
      benchmark::DoNotOptimize(served.result->termination.code);
      latencies.push_back(served.total_seconds);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cases.size()));
  ReportLatencyCounters(state, &latencies);
  ReportTierHitRate(state, service);
  state.counters["tier_rotations"] =
      static_cast<double>(service.Stats().tier_rotations);
}
BENCHMARK(BM_ServeLongMixed_TierGenerational);

}  // namespace
}  // namespace flowmotif

BENCHMARK_MAIN();
