// The engine's central promise: parallelism — in phase P1 (structural
// matching) and phase P2 alike, through the streamed P1→P2 pipeline —
// never changes any result. For random graphs from the gen/ presets and
// threads in {1, 2, 4, 8}, every mode must produce byte-identical
// output — the same instance sets, the same deterministic counters, the
// same top-k entries — with the single documented exception of the
// top-k pruning counters, which depend on how fast the floating
// threshold tightened. Since the engine's 1-thread run is the same
// pipeline as its parallel runs, every thread count (1 included) is
// also checked against an independent oracle: the core classes
// (FlowMotifEnumerator, InstanceCounter, TopKSearcher,
// MaxFlowDpSearcher) run directly over FindAllMatches().
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/counter.h"
#include "core/dp.h"
#include "core/enumerator.h"
#include "core/motif_catalog.h"
#include "core/structural_match.h"
#include "core/topk.h"
#include "engine/query_engine.h"
#include "gen/presets.h"
#include "util/thread_pool.h"

namespace flowmotif {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

struct Workload {
  TimeSeriesGraph graph;
  Motif motif;
  Timestamp delta;
  Flow phi;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> workloads;
  for (const DatasetPreset& preset : AllPresets()) {
    // Small but non-trivial samples: hundreds of interactions, enough
    // matches that every thread count actually splits work.
    const TimeSeriesGraph graph = GenerateDataset(preset, 0.05);
    workloads.push_back({graph, *MotifCatalog::ByName("M(3,2)"),
                         preset.default_delta, preset.default_phi});
    workloads.push_back({graph, *MotifCatalog::ByName("M(3,3)"),
                         preset.default_delta, 0.0});
    // A general (non-path) motif exercises the per-first-edge P1 work
    // units and the pair-table DFS branch through the whole engine.
    workloads.push_back({graph, *Motif::Parse("0>1,0>2", "fanout"),
                         preset.default_delta, 0.0});
  }
  return workloads;
}

std::vector<MatchBinding> AllMatches(const Workload& w) {
  return StructuralMatcher(w.graph, w.motif).FindAllMatches();
}

/// The enumeration oracle: FlowMotifEnumerator over the serial match
/// list, materializing every instance in discovery order.
EnumerationResult OracleEnumerate(const Workload& w,
                                  std::vector<MotifInstance>* instances) {
  EnumerationOptions eopts;
  eopts.delta = w.delta;
  eopts.phi = w.phi;
  const FlowMotifEnumerator enumerator(w.graph, w.motif, eopts);
  InstanceVisitor visitor;
  if (instances != nullptr) {
    visitor = [instances](const InstanceView& view) {
      instances->push_back(view.Materialize());
      return true;
    };
  }
  return enumerator.RunOnMatches(AllMatches(w), visitor);
}

void ExpectSameCounters(const EnumerationResult& engine,
                        const EnumerationResult& oracle) {
  EXPECT_EQ(engine.num_instances, oracle.num_instances);
  EXPECT_EQ(engine.num_structural_matches, oracle.num_structural_matches);
  EXPECT_EQ(engine.num_windows_processed, oracle.num_windows_processed);
  EXPECT_EQ(engine.num_phi_prunes, oracle.num_phi_prunes);
  EXPECT_EQ(engine.num_domination_skips, oracle.num_domination_skips);
}

TEST(ParallelEquivalenceTest, P1MatchListIdenticalAcrossThreadCounts) {
  for (const Workload& w : Workloads()) {
    const StructuralMatcher matcher(w.graph, w.motif);
    const std::vector<MatchBinding> serial = matcher.FindAllMatches();
    for (int threads : kThreadCounts) {
      ThreadPool pool(threads);
      ASSERT_EQ(matcher.FindAllMatchesParallel(&pool), serial)
          << w.motif.name() << " threads=" << threads;
    }
  }
}

TEST(ParallelEquivalenceTest, StreamedCountersIdenticalAcrossThreadCounts) {
  // collect_limit == 0: counters only. All deterministic counters must
  // match the serial run and the enumerator oracle.
  for (const Workload& w : Workloads()) {
    QueryEngine engine(w.graph);
    QueryOptions options;
    options.mode = QueryMode::kEnumerate;
    options.delta = w.delta;
    options.phi = w.phi;
    options.collect_limit = 0;

    const EnumerationResult oracle = OracleEnumerate(w, nullptr);
    options.num_threads = 1;
    const QueryResult serial = engine.Run(w.motif, options);
    for (int threads : kThreadCounts) {
      options.num_threads = threads;
      const QueryResult streamed = engine.Run(w.motif, options);
      {
        SCOPED_TRACE(w.motif.name() + " oracle threads=" +
                     std::to_string(threads));
        ExpectSameCounters(streamed.stats, oracle);
      }
      ASSERT_EQ(streamed.stats.num_instances, serial.stats.num_instances)
          << w.motif.name() << " threads=" << threads;
      ASSERT_EQ(streamed.stats.num_structural_matches,
                serial.stats.num_structural_matches);
      ASSERT_EQ(streamed.stats.num_windows_processed,
                serial.stats.num_windows_processed);
      ASSERT_EQ(streamed.stats.num_phi_prunes, serial.stats.num_phi_prunes);
      ASSERT_EQ(streamed.stats.num_domination_skips,
                serial.stats.num_domination_skips);
    }
  }
}

TEST(ParallelEquivalenceTest, EnumerateIdenticalAcrossThreadCounts) {
  for (const Workload& w : Workloads()) {
    QueryEngine engine(w.graph);
    QueryOptions options;
    options.mode = QueryMode::kEnumerate;
    options.delta = w.delta;
    options.phi = w.phi;
    options.collect_limit = -1;

    std::vector<MotifInstance> oracle_instances;
    const EnumerationResult oracle = OracleEnumerate(w, &oracle_instances);
    options.num_threads = 1;
    const QueryResult serial = engine.Run(w.motif, options);
    for (int threads : kThreadCounts) {
      options.num_threads = threads;
      const QueryResult parallel = engine.Run(w.motif, options);
      {
        SCOPED_TRACE(w.motif.name() + " oracle threads=" +
                     std::to_string(threads));
        ExpectSameCounters(parallel.stats, oracle);
        ASSERT_EQ(parallel.instances, oracle_instances);
      }
      ASSERT_EQ(parallel.stats.num_instances, serial.stats.num_instances)
          << w.motif.name() << " threads=" << threads;
      ASSERT_EQ(parallel.stats.num_structural_matches,
                serial.stats.num_structural_matches);
      ASSERT_EQ(parallel.stats.num_windows_processed,
                serial.stats.num_windows_processed);
      ASSERT_EQ(parallel.stats.num_phi_prunes, serial.stats.num_phi_prunes);
      ASSERT_EQ(parallel.stats.num_domination_skips,
                serial.stats.num_domination_skips);
      // The full materialized instance sets, in the same order.
      ASSERT_EQ(parallel.instances, serial.instances)
          << w.motif.name() << " threads=" << threads;
    }
  }
}

TEST(ParallelEquivalenceTest, StreamedEnumerateWithCollectLimitStaysIdentical) {
  // A collect limit with shards released out of order: the collected
  // prefix must still be the serial discovery-order prefix, exactly.
  for (const Workload& w : Workloads()) {
    QueryEngine engine(w.graph);
    QueryOptions options;
    options.mode = QueryMode::kEnumerate;
    options.delta = w.delta;
    options.phi = w.phi;
    for (const int64_t limit : {int64_t{7}, int64_t{-1}}) {
      options.collect_limit = limit;
      options.num_threads = 1;
      options.batch_size = 0;
      const QueryResult serial = engine.Run(w.motif, options);
      for (int threads : {2, 8}) {
        options.num_threads = threads;
        // Tiny batches on the larger thread count stress the
        // out-of-order merge far harder than the derived size.
        options.batch_size = threads == 8 ? 1 : 0;
        const QueryResult streamed = engine.Run(w.motif, options);
        ASSERT_EQ(streamed.instances, serial.instances)
            << w.motif.name() << " threads=" << threads
            << " limit=" << limit;
        ASSERT_EQ(streamed.stats.num_instances, serial.stats.num_instances);
        ASSERT_EQ(streamed.stats.num_structural_matches,
                  serial.stats.num_structural_matches);
      }
    }
  }
}

TEST(ParallelEquivalenceTest, CountIdenticalAcrossThreadCounts) {
  for (const Workload& w : Workloads()) {
    QueryEngine engine(w.graph);
    QueryOptions options;
    options.mode = QueryMode::kCount;
    options.delta = w.delta;
    options.phi = w.phi;

    const InstanceCounter::Result oracle =
        InstanceCounter(w.graph, w.motif, w.delta, w.phi)
            .RunOnMatches(AllMatches(w));
    options.num_threads = 1;
    const QueryResult serial = engine.Run(w.motif, options);
    for (int threads : kThreadCounts) {
      options.num_threads = threads;
      const QueryResult parallel = engine.Run(w.motif, options);
      EXPECT_EQ(parallel.stats.num_instances, oracle.num_instances)
          << w.motif.name() << " oracle threads=" << threads;
      EXPECT_EQ(parallel.stats.num_structural_matches,
                oracle.num_structural_matches);
      EXPECT_EQ(parallel.stats.num_windows_processed, oracle.num_windows);
      ASSERT_EQ(parallel.stats.num_instances, serial.stats.num_instances)
          << w.motif.name() << " threads=" << threads;
      ASSERT_EQ(parallel.memo_hits, serial.memo_hits);
      ASSERT_EQ(parallel.stats.num_windows_processed,
                serial.stats.num_windows_processed);
    }
  }
}

TEST(ParallelEquivalenceTest, TopKIdenticalAcrossThreadCounts) {
  for (const Workload& w : Workloads()) {
    QueryEngine engine(w.graph);
    QueryOptions options;
    options.mode = QueryMode::kTopK;
    options.delta = w.delta;
    options.phi = 0.0;
    options.k = 10;

    const TopKSearcher::Result oracle =
        TopKSearcher(w.graph, w.motif, w.delta, options.k)
            .RunOnMatches(AllMatches(w));
    options.num_threads = 1;
    const QueryResult serial = engine.Run(w.motif, options);
    for (int threads : kThreadCounts) {
      options.num_threads = threads;
      const QueryResult parallel = engine.Run(w.motif, options);
      ASSERT_EQ(parallel.topk.size(), oracle.entries.size())
          << w.motif.name() << " oracle threads=" << threads;
      for (size_t i = 0; i < oracle.entries.size(); ++i) {
        EXPECT_EQ(parallel.topk[i].flow, oracle.entries[i].flow)
            << w.motif.name() << " oracle threads=" << threads << " entry "
            << i;
        EXPECT_EQ(parallel.topk[i].instance, oracle.entries[i].instance)
            << w.motif.name() << " oracle threads=" << threads << " entry "
            << i;
      }
      ASSERT_EQ(parallel.topk.size(), serial.topk.size())
          << w.motif.name() << " threads=" << threads;
      for (size_t i = 0; i < serial.topk.size(); ++i) {
        ASSERT_DOUBLE_EQ(parallel.topk[i].flow, serial.topk[i].flow)
            << w.motif.name() << " threads=" << threads << " entry " << i;
        ASSERT_EQ(parallel.topk[i].instance, serial.topk[i].instance)
            << w.motif.name() << " threads=" << threads << " entry " << i;
      }
    }
  }
}

TEST(ParallelEquivalenceTest, Top1IdenticalAcrossThreadCounts) {
  for (const Workload& w : Workloads()) {
    QueryEngine engine(w.graph);
    QueryOptions options;
    options.mode = QueryMode::kTop1;
    options.delta = w.delta;

    const MaxFlowDpSearcher::Result oracle =
        MaxFlowDpSearcher(w.graph, w.motif, w.delta)
            .RunOnMatches(AllMatches(w));
    options.num_threads = 1;
    const QueryResult serial = engine.Run(w.motif, options);
    for (int threads : kThreadCounts) {
      options.num_threads = threads;
      const QueryResult parallel = engine.Run(w.motif, options);
      ASSERT_EQ(parallel.top1.found, oracle.found)
          << w.motif.name() << " oracle threads=" << threads;
      if (oracle.found) {
        EXPECT_EQ(parallel.top1.max_flow, oracle.max_flow);
        EXPECT_EQ(parallel.top1.best, oracle.best);
        EXPECT_EQ(parallel.top1.binding, oracle.binding);
        EXPECT_EQ(parallel.top1.window.start, oracle.window.start);
        EXPECT_EQ(parallel.top1.window.end, oracle.window.end);
      }
      EXPECT_EQ(parallel.stats.num_windows_processed, oracle.num_windows);
      ASSERT_EQ(parallel.top1.found, serial.top1.found)
          << w.motif.name() << " threads=" << threads;
      if (serial.top1.found) {
        ASSERT_DOUBLE_EQ(parallel.top1.max_flow, serial.top1.max_flow);
        ASSERT_EQ(parallel.top1.best, serial.top1.best);
        ASSERT_EQ(parallel.top1.binding, serial.top1.binding);
      }
      ASSERT_EQ(parallel.stats.num_windows_processed,
                serial.stats.num_windows_processed);
    }
  }
}

TEST(ParallelEquivalenceTest, SignificanceIdenticalAcrossThreadCounts) {
  // One preset is enough here: each report runs 1 + num_random_graphs
  // full counts.
  const DatasetPreset& preset = GetPreset(DatasetKind::kBitcoin);
  const TimeSeriesGraph graph = GenerateDataset(preset, 0.03);
  QueryEngine engine(graph);
  QueryOptions options;
  options.mode = QueryMode::kSignificance;
  options.delta = preset.default_delta;
  options.phi = preset.default_phi;
  options.num_random_graphs = 8;
  options.seed = 11;

  options.num_threads = 1;
  const QueryResult serial =
      engine.Run(*MotifCatalog::ByName("M(3,2)"), options);
  for (int threads : kThreadCounts) {
    options.num_threads = threads;
    const QueryResult parallel =
        engine.Run(*MotifCatalog::ByName("M(3,2)"), options);
    ASSERT_EQ(parallel.significance.real_count,
              serial.significance.real_count)
        << "threads=" << threads;
    ASSERT_EQ(parallel.significance.random_counts,
              serial.significance.random_counts);
    ASSERT_DOUBLE_EQ(parallel.significance.z_score,
                     serial.significance.z_score);
    ASSERT_DOUBLE_EQ(parallel.significance.p_value,
                     serial.significance.p_value);
  }
}

TEST(ParallelEquivalenceTest, ExplicitSmallBatchesStayIdentical) {
  // Forcing many tiny batches exercises the merge logic far harder than
  // the derived batch size does.
  const DatasetPreset& preset = GetPreset(DatasetKind::kFacebook);
  const TimeSeriesGraph graph = GenerateDataset(preset, 0.05);
  QueryEngine engine(graph);
  const Motif motif = *MotifCatalog::ByName("M(3,2)");

  QueryOptions options;
  options.mode = QueryMode::kTopK;
  options.delta = preset.default_delta;
  options.k = 5;
  options.num_threads = 1;
  const QueryResult serial = engine.Run(motif, options);

  options.num_threads = 8;
  options.batch_size = 1;
  const QueryResult parallel = engine.Run(motif, options);
  ASSERT_EQ(parallel.topk.size(), serial.topk.size());
  for (size_t i = 0; i < serial.topk.size(); ++i) {
    ASSERT_DOUBLE_EQ(parallel.topk[i].flow, serial.topk[i].flow) << i;
    ASSERT_EQ(parallel.topk[i].instance, serial.topk[i].instance) << i;
  }
}

TEST(ParallelEquivalenceTest, RunOnMatchesEqualsRunInEveryMode) {
  // RunOnMatches flattens its list into one pre-released shard, Run
  // cuts P1 shards: the batch layouts differ, the answers must not.
  for (const Workload& w : Workloads()) {
    QueryEngine engine(w.graph);
    const std::vector<MatchBinding> matches = AllMatches(w);
    for (QueryMode mode : {QueryMode::kEnumerate, QueryMode::kCount,
                           QueryMode::kTopK, QueryMode::kTop1}) {
      for (int threads : {1, 4}) {
        QueryOptions options;
        options.mode = mode;
        options.delta = w.delta;
        options.phi = mode == QueryMode::kTop1 ? 0.0 : w.phi;
        options.k = 10;
        options.num_threads = threads;
        const QueryResult run = engine.Run(w.motif, options);
        const QueryResult given = engine.RunOnMatches(w.motif, matches, options);
        const std::string label = w.motif.name() + " mode " +
                                  std::to_string(static_cast<int>(mode)) +
                                  " threads=" + std::to_string(threads);
        SCOPED_TRACE(label);
        if (mode == QueryMode::kTopK) {
          // Domination probes run behind the floating threshold, whose
          // tightening depends on the batch layout (see QueryResult).
          EnumerationResult given_stats = given.stats;
          given_stats.num_domination_skips = run.stats.num_domination_skips;
          ExpectSameCounters(given_stats, run.stats);
        } else {
          ExpectSameCounters(given.stats, run.stats);
        }
        EXPECT_EQ(given.memo_hits, run.memo_hits);
        EXPECT_EQ(given.instances, run.instances);
        ASSERT_EQ(given.topk.size(), run.topk.size());
        for (size_t i = 0; i < run.topk.size(); ++i) {
          EXPECT_EQ(given.topk[i].flow, run.topk[i].flow) << i;
          EXPECT_EQ(given.topk[i].instance, run.topk[i].instance) << i;
        }
        EXPECT_EQ(given.top1.found, run.top1.found);
        EXPECT_EQ(given.top1.max_flow, run.top1.max_flow);
        EXPECT_EQ(given.top1.best, run.top1.best);
        EXPECT_EQ(given.top1.binding, run.top1.binding);
        EXPECT_EQ(given.top1.window.start, run.top1.window.start);
        EXPECT_EQ(given.top1.window.end, run.top1.window.end);
        EXPECT_TRUE(given.termination.complete());
      }
    }
  }
}

TEST(ParallelEquivalenceTest, TierBackedRunsEqualTierlessRuns) {
  // With QueryOptions::shared_cache_tier every P2 worker's window-list
  // reader leases the tier and reads it on a slot miss. Neither a
  // default tier (shared by every run of a workload, so later runs read
  // lists earlier runs published) nor a one-entry-per-generation tier
  // (rotating under the readers' leases) may change any answer.
  for (const Workload& w : Workloads()) {
    QueryEngine engine(w.graph);
    const size_t num_matches = AllMatches(w).size();
    SharedWindowCache warm_tier(w.delta);
    for (QueryMode mode : {QueryMode::kEnumerate, QueryMode::kCount,
                           QueryMode::kTopK, QueryMode::kTop1}) {
      for (int threads : {1, 4}) {
        QueryOptions options;
        options.mode = mode;
        options.delta = w.delta;
        options.phi = mode == QueryMode::kTop1 ? 0.0 : w.phi;
        options.k = 10;
        options.collect_limit = -1;
        options.num_threads = threads;
        const QueryResult plain = engine.Run(w.motif, options);
        SharedWindowCache tiny_tier(w.delta, /*max_entries=*/1);
        for (SharedWindowCache* tier : {&warm_tier, &tiny_tier}) {
          options.shared_cache_tier = tier;
          const QueryResult tiered = engine.Run(w.motif, options);
          SCOPED_TRACE(w.motif.name() + " mode " +
                       std::to_string(static_cast<int>(mode)) +
                       " threads=" + std::to_string(threads) +
                       (tier == &tiny_tier ? " tiny tier" : " warm tier"));
          EnumerationResult tiered_stats = tiered.stats;
          if (mode == QueryMode::kTopK && threads > 1) {
            // Domination probes run behind the floating threshold,
            // whose tightening depends on worker timing (see
            // QueryResult); num_pruning_probes is not compared either.
            tiered_stats.num_domination_skips =
                plain.stats.num_domination_skips;
          }
          ExpectSameCounters(tiered_stats, plain.stats);
          EXPECT_EQ(tiered.num_batches, plain.num_batches);
          EXPECT_EQ(tiered.threads_used, plain.threads_used);
          EXPECT_EQ(tiered.memo_hits, plain.memo_hits);
          EXPECT_EQ(tiered.instances, plain.instances);
          ASSERT_EQ(tiered.topk.size(), plain.topk.size());
          for (size_t i = 0; i < plain.topk.size(); ++i) {
            EXPECT_EQ(tiered.topk[i].flow, plain.topk[i].flow) << i;
            EXPECT_EQ(tiered.topk[i].instance, plain.topk[i].instance) << i;
          }
          EXPECT_EQ(tiered.top1.found, plain.top1.found);
          EXPECT_EQ(tiered.top1.max_flow, plain.top1.max_flow);
          EXPECT_EQ(tiered.top1.best, plain.top1.best);
          EXPECT_EQ(tiered.top1.binding, plain.top1.binding);
          EXPECT_EQ(tiered.top1.window.start, plain.top1.window.start);
          EXPECT_EQ(tiered.top1.window.end, plain.top1.window.end);
          EXPECT_EQ(tiered.top1.num_windows, plain.top1.num_windows);
          EXPECT_EQ(tiered.top1.matches_processed,
                    plain.top1.matches_processed);
          EXPECT_EQ(tiered.termination.code, plain.termination.code);
          EXPECT_TRUE(tiered.termination.complete());
        }
        // Every match binds its own (first, last) pair in these motifs,
        // so two matches are two distinct tier inserts.
        if (num_matches >= 2) {
          EXPECT_GT(tiny_tier.num_rotations(), 0);
        }
      }
    }
    EXPECT_GT(warm_tier.num_lookups(), 0);
  }
}

}  // namespace
}  // namespace flowmotif
