#include "core/dp.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/match_list.h"
#include "core/motif.h"
#include "core/structural_match.h"
#include "core/topk.h"
#include "test_util.h"
#include "util/cancellation.h"

namespace flowmotif {
namespace {

using testing_util::MakeGraph;
using testing_util::PaperFig2Graph;
using testing_util::PaperFig7Graph;

Motif M33() { return *Motif::FromSpanningPath({0, 1, 2, 0}, "M(3,3)"); }
Motif Chain3() { return *Motif::FromSpanningPath({0, 1, 2}); }

MatchBinding Fig7Binding() { return {2, 1, 0}; }

TEST(DpTest, Table2Top1FlowIsFive) {
  // Sec. 5.1 / Table 2: the best instance of the Fig. 7 match within
  // window [10,20] has flow 5.
  TimeSeriesGraph graph = PaperFig7Graph();
  MaxFlowDpSearcher searcher(graph, M33(), 10);
  MaxFlowDpSearcher::Result result = searcher.RunOnMatch(Fig7Binding());
  ASSERT_TRUE(result.found);
  EXPECT_DOUBLE_EQ(result.max_flow, 5.0);
}

TEST(DpTest, Table2TracebackReconstructsTheBoldInstance) {
  // The argmax instance is [e1<-{(10,5)}, e2<-{(11,3),(16,3)},
  // e3<-{(19,6)}] (the bold cells of Table 2).
  TimeSeriesGraph graph = PaperFig7Graph();
  MaxFlowDpSearcher searcher(graph, M33(), 10);
  MaxFlowDpSearcher::Result result = searcher.RunOnMatch(Fig7Binding());
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.best.edge_sets[0],
            (std::vector<Interaction>{{10, 5.0}}));
  EXPECT_EQ(result.best.edge_sets[1],
            (std::vector<Interaction>{{11, 3.0}, {16, 3.0}}));
  EXPECT_EQ(result.best.edge_sets[2],
            (std::vector<Interaction>{{19, 6.0}}));
  EXPECT_EQ(result.window, (Window{10, 20}));
  EXPECT_DOUBLE_EQ(result.best.InstanceFlow(), 5.0);
}

TEST(DpTest, BestInstanceIsValid) {
  TimeSeriesGraph g = PaperFig7Graph();
  Motif m = M33();
  MaxFlowDpSearcher searcher(g, m, 10);
  MaxFlowDpSearcher::Result result = searcher.Run();
  ASSERT_TRUE(result.found);
  Status s = ValidateInstance(g, m, result.best, 10, 0.0);
  EXPECT_TRUE(s.ok()) << s << " " << result.best.ToString();
}

TEST(DpTest, GlobalRunAgreesWithTopK1) {
  // The DP module must find the same maximum flow as the general top-k
  // algorithm with k = 1 (they search the same space).
  for (TimeSeriesGraph (*graph_fn)() : {&PaperFig7Graph, &PaperFig2Graph}) {
    TimeSeriesGraph g = graph_fn();
    MaxFlowDpSearcher dp(g, M33(), 10);
    TopKSearcher topk(g, M33(), 10, 1);
    MaxFlowDpSearcher::Result dp_result = dp.Run();
    TopKSearcher::Result topk_result = topk.Run();
    ASSERT_EQ(dp_result.found, !topk_result.entries.empty());
    if (dp_result.found) {
      EXPECT_DOUBLE_EQ(dp_result.max_flow, topk_result.entries[0].flow);
    }
  }
}

TEST(DpTest, Fig2GlobalTop1IsTen) {
  TimeSeriesGraph graph = PaperFig2Graph();
  MaxFlowDpSearcher searcher(graph, M33(), 10);
  MaxFlowDpSearcher::Result result = searcher.Run();
  ASSERT_TRUE(result.found);
  EXPECT_DOUBLE_EQ(result.max_flow, 10.0);
  EXPECT_EQ(result.binding, (MatchBinding{2, 0, 1}));
}

TEST(DpTest, NoInstanceMeansNotFound) {
  // Order can never be satisfied: e2 precedes e1 everywhere.
  TimeSeriesGraph g = MakeGraph({{0, 1, 10, 1.0}, {1, 2, 5, 1.0}});
  MaxFlowDpSearcher searcher(g, Chain3(), 100);
  MaxFlowDpSearcher::Result result = searcher.Run();
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.max_flow, 0.0);
}

TEST(DpTest, SingleEdgeMotif) {
  TimeSeriesGraph g = MakeGraph({{0, 1, 10, 1.0}, {0, 1, 12, 2.0},
                                 {0, 1, 30, 4.0}});
  Motif edge = *Motif::FromSpanningPath({0, 1});
  MaxFlowDpSearcher searcher(g, edge, 5);
  MaxFlowDpSearcher::Result result = searcher.Run();
  ASSERT_TRUE(result.found);
  EXPECT_DOUBLE_EQ(result.max_flow, 4.0);  // window [30,35]
}

TEST(DpTest, RunPerWindowExposesEachPosition) {
  TimeSeriesGraph graph = PaperFig7Graph();
  MaxFlowDpSearcher searcher(graph, M33(), 10);
  std::vector<MaxFlowDpSearcher::WindowBest> bests =
      searcher.RunPerWindow(Fig7Binding());
  ASSERT_EQ(bests.size(), 2u);  // [10,20] and [15,25]
  EXPECT_EQ(bests[0].window, (Window{10, 20}));
  EXPECT_TRUE(bests[0].found);
  EXPECT_DOUBLE_EQ(bests[0].max_flow, 5.0);
  EXPECT_EQ(bests[1].window, (Window{15, 25}));
  EXPECT_TRUE(bests[1].found);
  EXPECT_DOUBLE_EQ(bests[1].max_flow, 3.0);  // hand-traced
}

TEST(DpTest, RunOnMatchesMatchesRun) {
  TimeSeriesGraph g = PaperFig2Graph();
  MaxFlowDpSearcher searcher(g, M33(), 10);
  StructuralMatcher matcher(g, M33());
  MaxFlowDpSearcher::Result via_matches =
      searcher.RunOnMatches(matcher.FindAllMatches());
  MaxFlowDpSearcher::Result via_run = searcher.Run();
  EXPECT_EQ(via_matches.found, via_run.found);
  EXPECT_DOUBLE_EQ(via_matches.max_flow, via_run.max_flow);
}

TEST(DpTest, WindowCountsReported) {
  TimeSeriesGraph graph = PaperFig7Graph();
  MaxFlowDpSearcher searcher(graph, M33(), 10);
  MaxFlowDpSearcher::Result result = searcher.RunOnMatch(Fig7Binding());
  EXPECT_EQ(result.num_windows, 2);
  EXPECT_GE(result.seconds, 0.0);
}

TEST(DpTest, ScratchBoundToOneQueryControl) {
  TimeSeriesGraph graph = PaperFig2Graph();
  const MatchList matches = StructuralMatcher(graph, M33()).FindMatchList();
  QueryControl first(nullptr, QueryDeadline(), WorkBudget());
  QueryControl second(nullptr, QueryDeadline(), WorkBudget());
  MaxFlowDpSearcher searcher(graph, M33(), 10);
  searcher.set_query_control(&first);
  MaxFlowDpSearcher::Scratch scratch;
  const MaxFlowDpSearcher::Result once =
      searcher.RunOnMatches(matches, 0, matches.size(), &scratch);
  // Same configuration: the Scratch is reusable and results repeat.
  const MaxFlowDpSearcher::Result again =
      searcher.RunOnMatches(matches, 0, matches.size(), &scratch);
  EXPECT_EQ(once.found, again.found);
  EXPECT_DOUBLE_EQ(once.max_flow, again.max_flow);
  // Another control (or a later set_query_control) would leave the
  // reader billing the first one: the reuse aborts instead.
  MaxFlowDpSearcher other(graph, M33(), 10);
  other.set_query_control(&second);
  EXPECT_DEATH(other.RunOnMatches(matches, 0, matches.size(), &scratch),
               "query control");
  searcher.set_query_control(&second);
  EXPECT_DEATH(searcher.RunOnMatches(matches, 0, matches.size(), &scratch),
               "query control");
}

}  // namespace
}  // namespace flowmotif
