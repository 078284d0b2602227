// Golden tests that replay the worked examples of the paper:
//  * Fig. 2 / Fig. 4: the M(3,3) instances of the running-example bitcoin
//    graph with delta = 10, phi = 7;
//  * Fig. 7: the window positions and the enumerated instances of the
//    structural match u3->u2->u1->u3 for delta = 10 and several phi.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/enumerator.h"
#include "core/motif.h"
#include "test_util.h"

namespace flowmotif {
namespace {

using testing_util::PaperFig2Graph;
using testing_util::PaperFig7Graph;

Motif M33() { return *Motif::FromSpanningPath({0, 1, 2, 0}, "M(3,3)"); }

EnumerationOptions Opts(Timestamp delta, Flow phi) {
  EnumerationOptions o;
  o.delta = delta;
  o.phi = phi;
  return o;
}

std::vector<MotifInstance> Collect(const TimeSeriesGraph& g,
                                   const Motif& motif, Timestamp delta,
                                   Flow phi) {
  FlowMotifEnumerator enumerator(g, motif, Opts(delta, phi));
  std::vector<MotifInstance> out = enumerator.CollectAll();
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PaperFig4Test, M33InstancesWithDelta10Phi7) {
  // With delta = 10, phi = 7 the running-example graph has exactly two
  // maximal M(3,3) instances:
  //  * Fig. 4(a): u3,u1,u2 with [e1<-{(10,10)}, e2<-{(13,5),(15,7)},
  //    e3<-{(18,20)}] (flow 10);
  //  * the second triangle u2,u3,u4 with [e1<-{(18,20)},
  //    e2<-{(19,5),(21,4)}, e3<-{(23,7)}] (flow 7).
  std::vector<MotifInstance> instances =
      Collect(PaperFig2Graph(), M33(), 10, 7.0);
  ASSERT_EQ(instances.size(), 2u);

  MotifInstance fig4a;
  fig4a.binding = {2, 0, 1};
  fig4a.edge_sets = {{{10, 10.0}},
                     {{13, 5.0}, {15, 7.0}},
                     {{18, 20.0}}};
  MotifInstance second_triangle;
  second_triangle.binding = {1, 2, 3};
  second_triangle.edge_sets = {{{18, 20.0}},
                               {{19, 5.0}, {21, 4.0}},
                               {{23, 7.0}}};

  EXPECT_NE(std::find(instances.begin(), instances.end(), fig4a),
            instances.end());
  EXPECT_NE(std::find(instances.begin(), instances.end(), second_triangle),
            instances.end());
  EXPECT_DOUBLE_EQ(fig4a.InstanceFlow(), 10.0);
  EXPECT_DOUBLE_EQ(second_triangle.InstanceFlow(), 7.0);
}

TEST(PaperFig4Test, NonMaximalVariantIsNotEmitted) {
  // Fig. 4(b): same binding but e2 <- {(15,7)} only. It must not appear.
  std::vector<MotifInstance> instances =
      Collect(PaperFig2Graph(), M33(), 10, 7.0);
  MotifInstance fig4b;
  fig4b.binding = {2, 0, 1};
  fig4b.edge_sets = {{{10, 10.0}}, {{15, 7.0}}, {{18, 20.0}}};
  EXPECT_EQ(std::find(instances.begin(), instances.end(), fig4b),
            instances.end());
}

TEST(PaperFig4Test, BothEmittedInstancesAreMaximal) {
  TimeSeriesGraph g = PaperFig2Graph();
  for (const MotifInstance& instance : Collect(g, M33(), 10, 7.0)) {
    EXPECT_TRUE(ValidateInstance(g, M33(), instance, 10, 7.0).ok());
    EXPECT_TRUE(IsMaximalInstance(g, M33(), instance, 10))
        << instance.ToString();
  }
}

// ---------------------------------------------------------------------------
// Fig. 7: match binding node0->u3(=2), node1->u2(=1), node2->u1(=0):
// e1 = u3->u2 {(10,5),(13,2),(15,3),(18,7)},
// e2 = u2->u1 {(9,4),(11,3),(16,3)},
// e3 = u1->u3 {(14,4),(19,6),(24,3),(25,2)}.
// ---------------------------------------------------------------------------

MatchBinding Fig7Binding() { return {2, 1, 0}; }

std::vector<MotifInstance> CollectFig7(Flow phi) {
  TimeSeriesGraph g = PaperFig7Graph();
  Motif m33 = M33();
  FlowMotifEnumerator enumerator(g, m33, Opts(10, phi));
  std::vector<MotifInstance> out;
  EnumerationResult result;
  WindowListMru reader(10);
  enumerator.EnumerateMatch(
      Fig7Binding(),
      [&out](const InstanceView& view) {
        out.push_back(view.Materialize());
        return true;
      },
      &result, &reader);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PaperFig7Test, PhiZeroEnumeratesFourInstances) {
  std::vector<MotifInstance> instances = CollectFig7(0.0);
  ASSERT_EQ(instances.size(), 4u);

  // The two instances of prefix [10,10] called out in the paper's text.
  MotifInstance paper1;
  paper1.binding = Fig7Binding();
  paper1.edge_sets = {{{10, 5.0}},
                      {{11, 3.0}},
                      {{14, 4.0}, {19, 6.0}}};
  MotifInstance paper2;
  paper2.binding = Fig7Binding();
  paper2.edge_sets = {{{10, 5.0}},
                      {{11, 3.0}, {16, 3.0}},
                      {{19, 6.0}}};
  EXPECT_NE(std::find(instances.begin(), instances.end(), paper1),
            instances.end());
  EXPECT_NE(std::find(instances.begin(), instances.end(), paper2),
            instances.end());

  // The remaining two: the prefix ending at 15 within [10,20] and the
  // window [15,25] instance.
  MotifInstance third;
  third.binding = Fig7Binding();
  third.edge_sets = {{{10, 5.0}, {13, 2.0}, {15, 3.0}},
                     {{16, 3.0}},
                     {{19, 6.0}}};
  MotifInstance fourth;
  fourth.binding = Fig7Binding();
  fourth.edge_sets = {{{15, 3.0}},
                      {{16, 3.0}},
                      {{19, 6.0}, {24, 3.0}, {25, 2.0}}};
  EXPECT_NE(std::find(instances.begin(), instances.end(), third),
            instances.end());
  EXPECT_NE(std::find(instances.begin(), instances.end(), fourth),
            instances.end());
}

TEST(PaperFig7Test, NoInstanceWithJustTheFirstTwoE1Elements) {
  // The paper: "there is no instance which contains just the first two
  // elements of e1 but not the third one, because there is no element
  // from e2 which is temporally between (13,2) and (15,3)".
  for (const MotifInstance& instance : CollectFig7(0.0)) {
    EXPECT_NE(instance.edge_sets[0],
              (std::vector<Interaction>{{10, 5.0}, {13, 2.0}}))
        << instance.ToString();
  }
}

TEST(PaperFig7Test, Phi5RejectsTheLowFlowE2Prefix) {
  // The paper: with phi = 5, any instance [e1<-{(10,5)}, e2<-{(11,3)},..]
  // is rejected; only the aggregated e2 = {(11,3),(16,3)} survives.
  std::vector<MotifInstance> instances = CollectFig7(5.0);
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0].edge_sets[0],
            (std::vector<Interaction>{{10, 5.0}}));
  EXPECT_EQ(instances[0].edge_sets[1],
            (std::vector<Interaction>{{11, 3.0}, {16, 3.0}}));
  EXPECT_EQ(instances[0].edge_sets[2],
            (std::vector<Interaction>{{19, 6.0}}));
  // This is exactly the paper's top-1 instance with flow 5 (Table 2).
  EXPECT_DOUBLE_EQ(instances[0].InstanceFlow(), 5.0);
}

TEST(PaperFig7Test, Phi7LeavesNothing) {
  EXPECT_TRUE(CollectFig7(7.0).empty());
}

TEST(PaperFig7Test, WindowCountersMatchPaperNarrative) {
  // Two processed windows ([10,20] and [15,25]); [13,23] and [18,28] are
  // skipped.
  TimeSeriesGraph g = PaperFig7Graph();
  FlowMotifEnumerator enumerator(g, M33(), Opts(10, 0.0));
  EnumerationResult result;
  WindowListMru reader(10);
  enumerator.EnumerateMatch(Fig7Binding(), nullptr, &result, &reader);
  EXPECT_EQ(result.num_windows_processed, 2);
  EXPECT_EQ(result.num_instances, 4);
}

}  // namespace
}  // namespace flowmotif
