#include "engine/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/counter.h"
#include "core/dp.h"
#include "core/enumerator.h"
#include "core/significance.h"
#include "core/topk.h"
#include "test_util.h"

namespace flowmotif {
namespace {

Motif M33() { return *Motif::FromSpanningPath({0, 1, 2, 0}); }

QueryOptions BaseOptions(QueryMode mode, Timestamp delta, Flow phi) {
  QueryOptions options;
  options.mode = mode;
  options.delta = delta;
  options.phi = phi;
  return options;
}

TEST(QueryEngineTest, EnumerateAgreesWithEnumerator) {
  const TimeSeriesGraph g = testing_util::PaperFig2Graph();
  const QueryEngine engine(g);
  QueryOptions options = BaseOptions(QueryMode::kEnumerate, 10, 5.0);
  options.collect_limit = -1;
  const QueryResult result = engine.Run(M33(), options);

  EnumerationOptions eopts;
  eopts.delta = 10;
  eopts.phi = 5.0;
  const FlowMotifEnumerator enumerator(g, M33(), eopts);
  const EnumerationResult direct = enumerator.Run();
  std::vector<MotifInstance> direct_instances = enumerator.CollectAll();

  EXPECT_EQ(result.stats.num_instances, direct.num_instances);
  EXPECT_EQ(result.stats.num_structural_matches,
            direct.num_structural_matches);
  EXPECT_EQ(result.stats.num_windows_processed,
            direct.num_windows_processed);
  EXPECT_EQ(result.stats.num_phi_prunes, direct.num_phi_prunes);
  EXPECT_EQ(result.stats.num_domination_skips, direct.num_domination_skips);
  EXPECT_EQ(result.instances, direct_instances);
  EXPECT_EQ(result.mode, QueryMode::kEnumerate);
  EXPECT_EQ(result.threads_used, 1);
}

TEST(QueryEngineTest, EnumerateCollectLimitTruncates) {
  const TimeSeriesGraph g = testing_util::PaperFig7Graph();
  const QueryEngine engine(g);

  QueryOptions all = BaseOptions(QueryMode::kEnumerate, 10, 0.0);
  all.collect_limit = -1;
  const QueryResult everything = engine.Run(M33(), all);
  ASSERT_GT(everything.instances.size(), 1u);

  QueryOptions limited = all;
  limited.collect_limit = 1;
  const QueryResult first = engine.Run(M33(), limited);
  ASSERT_EQ(first.instances.size(), 1u);
  EXPECT_EQ(first.instances[0], everything.instances[0]);
  // Counters are unaffected by the collection limit.
  EXPECT_EQ(first.stats.num_instances, everything.stats.num_instances);

  QueryOptions none = all;
  none.collect_limit = 0;
  const QueryResult counted = engine.Run(M33(), none);
  EXPECT_TRUE(counted.instances.empty());
  EXPECT_EQ(counted.stats.num_instances, everything.stats.num_instances);
}

TEST(QueryEngineTest, CountAgreesWithInstanceCounter) {
  const TimeSeriesGraph g = testing_util::PaperFig2Graph();
  const QueryEngine engine(g);
  const QueryResult result =
      engine.Run(M33(), BaseOptions(QueryMode::kCount, 10, 5.0));

  const InstanceCounter counter(g, M33(), 10, 5.0);
  const InstanceCounter::Result direct = counter.Run();
  EXPECT_EQ(result.stats.num_instances, direct.num_instances);
  EXPECT_EQ(result.stats.num_structural_matches,
            direct.num_structural_matches);
  EXPECT_EQ(result.stats.num_windows_processed, direct.num_windows);
  EXPECT_EQ(result.memo_hits, direct.memo_hits);
}

TEST(QueryEngineTest, CountAgreesWithEnumerateMode) {
  const TimeSeriesGraph g = testing_util::PaperFig7Graph();
  const QueryEngine engine(g);
  const QueryResult counted =
      engine.Run(M33(), BaseOptions(QueryMode::kCount, 12, 3.0));
  const QueryResult enumerated =
      engine.Run(M33(), BaseOptions(QueryMode::kEnumerate, 12, 3.0));
  EXPECT_EQ(counted.stats.num_instances, enumerated.stats.num_instances);
}

TEST(QueryEngineTest, TopKAgreesWithTopKSearcher) {
  const TimeSeriesGraph g = testing_util::PaperFig2Graph();
  const QueryEngine engine(g);
  QueryOptions options = BaseOptions(QueryMode::kTopK, 10, 0.0);
  options.k = 3;
  const QueryResult result = engine.Run(M33(), options);

  const TopKSearcher searcher(g, M33(), 10, 3);
  const TopKSearcher::Result direct = searcher.Run();
  ASSERT_EQ(result.topk.size(), direct.entries.size());
  for (size_t i = 0; i < result.topk.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.topk[i].flow, direct.entries[i].flow) << i;
    EXPECT_EQ(result.topk[i].instance, direct.entries[i].instance) << i;
  }
}

TEST(QueryEngineTest, Top1AgreesWithDpSearcher) {
  const TimeSeriesGraph g = testing_util::PaperFig2Graph();
  const QueryEngine engine(g);
  const QueryResult result =
      engine.Run(M33(), BaseOptions(QueryMode::kTop1, 10, 0.0));

  const MaxFlowDpSearcher searcher(g, M33(), 10);
  const MaxFlowDpSearcher::Result direct = searcher.Run();
  ASSERT_EQ(result.top1.found, direct.found);
  if (direct.found) {
    EXPECT_DOUBLE_EQ(result.top1.max_flow, direct.max_flow);
    EXPECT_EQ(result.top1.best, direct.best);
    EXPECT_EQ(result.top1.binding, direct.binding);
  }
  EXPECT_EQ(result.stats.num_windows_processed, direct.num_windows);
}

TEST(QueryEngineTest, Top1MatchesTopKWinner) {
  const TimeSeriesGraph g = testing_util::PaperFig7Graph();
  const QueryEngine engine(g);
  QueryOptions topk = BaseOptions(QueryMode::kTopK, 10, 0.0);
  topk.k = 1;
  const QueryResult k1 = engine.Run(M33(), topk);
  const QueryResult top1 =
      engine.Run(M33(), BaseOptions(QueryMode::kTop1, 10, 0.0));
  ASSERT_FALSE(k1.topk.empty());
  ASSERT_TRUE(top1.top1.found);
  EXPECT_DOUBLE_EQ(k1.topk[0].flow, top1.top1.max_flow);
}

TEST(QueryEngineTest, SignificanceAgreesWithAnalyzer) {
  const TimeSeriesGraph g = testing_util::PaperFig2Graph();
  const QueryEngine engine(g);
  QueryOptions options = BaseOptions(QueryMode::kSignificance, 10, 5.0);
  options.num_random_graphs = 5;
  options.seed = 7;
  const QueryResult result = engine.Run(M33(), options);

  SignificanceAnalyzer::Options sopts;
  sopts.num_random_graphs = 5;
  sopts.seed = 7;
  sopts.delta = 10;
  sopts.phi = 5.0;
  const SignificanceAnalyzer analyzer(g, sopts);
  const SignificanceAnalyzer::MotifReport direct = analyzer.Analyze(M33());

  EXPECT_EQ(result.significance.real_count, direct.real_count);
  EXPECT_EQ(result.significance.random_counts, direct.random_counts);
  EXPECT_DOUBLE_EQ(result.significance.z_score, direct.z_score);
  EXPECT_DOUBLE_EQ(result.significance.p_value, direct.p_value);
  EXPECT_EQ(result.stats.num_instances, direct.real_count);
}

TEST(QueryEngineTest, RunOnMatchesAgreesWithRun) {
  const TimeSeriesGraph g = testing_util::PaperFig2Graph();
  const QueryEngine engine(g);
  const std::vector<MatchBinding> matches =
      StructuralMatcher(g, M33()).FindAllMatches();

  for (QueryMode mode :
       {QueryMode::kEnumerate, QueryMode::kCount, QueryMode::kTopK,
        QueryMode::kTop1}) {
    QueryOptions options = BaseOptions(mode, 10, 5.0);
    if (mode == QueryMode::kTopK) options.phi = 0.0;
    const QueryResult via_run = engine.Run(M33(), options);
    const QueryResult via_matches =
        engine.RunOnMatches(M33(), matches, options);
    EXPECT_EQ(via_matches.stats.num_instances, via_run.stats.num_instances)
        << static_cast<int>(mode);
    EXPECT_EQ(via_matches.stats.num_structural_matches,
              via_run.stats.num_structural_matches);
  }
}

TEST(QueryEngineTest, ZeroThreadsMeansHardwareParallelism) {
  const TimeSeriesGraph g = testing_util::PaperFig2Graph();
  const QueryEngine engine(g);
  QueryOptions options = BaseOptions(QueryMode::kCount, 10, 5.0);
  options.num_threads = 0;
  const QueryResult result = engine.Run(M33(), options);
  EXPECT_EQ(result.threads_used, ThreadPool::DefaultParallelism());
}

TEST(QueryEngineTest, EmptyGraphNoMatches) {
  const TimeSeriesGraph g = testing_util::MakeGraph({{0, 1, 5, 1.0}});
  const QueryEngine engine(g);
  QueryOptions options = BaseOptions(QueryMode::kEnumerate, 10, 0.0);
  options.num_threads = 4;
  const QueryResult result = engine.Run(M33(), options);
  EXPECT_EQ(result.stats.num_instances, 0);
  EXPECT_EQ(result.stats.num_structural_matches, 0);
  EXPECT_EQ(result.num_batches, 0);
}

TEST(QueryEngineTest, ZeroMatchGraphThroughEveryMode) {
  // A single edge can never back M(3,3): the match list is empty, so
  // every mode at every thread count must come back clean instead of
  // tripping over zero-size partitions.
  const TimeSeriesGraph g = testing_util::MakeGraph({{0, 1, 5, 1.0}});
  const QueryEngine engine(g);
  for (int threads : {1, 4}) {
    for (QueryMode mode :
         {QueryMode::kEnumerate, QueryMode::kCount, QueryMode::kTopK,
          QueryMode::kTop1, QueryMode::kSignificance}) {
      QueryOptions options = BaseOptions(mode, 10, 0.0);
      options.num_threads = threads;
      options.collect_limit = mode == QueryMode::kEnumerate ? -1 : 0;
      options.num_random_graphs = 3;
      const QueryResult result = engine.Run(M33(), options);
      EXPECT_EQ(result.stats.num_instances, 0)
          << "mode=" << static_cast<int>(mode) << " threads=" << threads;
      EXPECT_TRUE(result.instances.empty());
      EXPECT_TRUE(result.topk.empty());
      EXPECT_FALSE(result.top1.found);
      if (mode == QueryMode::kSignificance) {
        EXPECT_EQ(result.significance.real_count, 0);
      }
    }
  }
}

TEST(QueryEngineTest, StreamedEnumerateMatchesEnumeratorCounters) {
  // Counters-only (collect_limit == 0) and materializing
  // (collect_limit == -1) enumeration run the same pipeline at every
  // thread count; both must report the counters of FlowMotifEnumerator
  // run directly, and only the materializing run returns instances.
  const TimeSeriesGraph g = testing_util::PaperFig2Graph();
  const QueryEngine engine(g);
  EnumerationOptions eopts;
  eopts.delta = 10;
  const EnumerationResult direct = FlowMotifEnumerator(g, M33(), eopts).Run();
  ASSERT_GT(direct.num_instances, 0);
  for (int threads : {1, 4}) {
    for (int64_t limit : {int64_t{0}, int64_t{-1}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " limit=" + std::to_string(limit));
      QueryOptions options = BaseOptions(QueryMode::kEnumerate, 10, 0.0);
      options.num_threads = threads;
      options.collect_limit = limit;
      const QueryResult result = engine.Run(M33(), options);
      EXPECT_EQ(result.stats.num_instances, direct.num_instances);
      EXPECT_EQ(result.stats.num_structural_matches,
                direct.num_structural_matches);
      EXPECT_EQ(result.stats.num_windows_processed,
                direct.num_windows_processed);
      EXPECT_EQ(result.stats.num_phi_prunes, direct.num_phi_prunes);
      EXPECT_EQ(result.stats.num_domination_skips,
                direct.num_domination_skips);
      EXPECT_EQ(static_cast<int64_t>(result.instances.size()),
                limit == 0 ? 0 : direct.num_instances);
    }
  }
}

}  // namespace
}  // namespace flowmotif
