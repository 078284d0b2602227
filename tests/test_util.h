#ifndef FLOWMOTIF_TESTS_TEST_UTIL_H_
#define FLOWMOTIF_TESTS_TEST_UTIL_H_

#include <tuple>
#include <utility>
#include <vector>

#include "graph/interaction_graph.h"
#include "graph/time_series_graph.h"
#include "util/logging.h"

namespace flowmotif {
namespace testing_util {

/// EdgeSeries::Create for inputs that are valid by construction.
inline EdgeSeries MakeSeries(std::vector<Interaction> interactions) {
  StatusOr<EdgeSeries> series = EdgeSeries::Create(std::move(interactions));
  FLOWMOTIF_CHECK(series.ok()) << series.status();
  return *std::move(series);
}

/// Builds a TimeSeriesGraph from (src, dst, t, f) tuples.
inline TimeSeriesGraph MakeGraph(
    const std::vector<std::tuple<VertexId, VertexId, Timestamp, Flow>>&
        edges) {
  InteractionGraph multigraph;
  for (const auto& [src, dst, t, f] : edges) {
    Status s = multigraph.AddEdge(src, dst, t, f);
    FLOWMOTIF_CHECK(s.ok()) << s.ToString();
  }
  return TimeSeriesGraph::Build(multigraph);
}

/// The paper's running-example bitcoin user graph (Fig. 2 / Fig. 5).
/// Vertices: u1=0, u2=1, u3=2, u4=3. It contains exactly two directed
/// triangles — u1->u2->u3->u1 and u2->u3->u4->u2 — so M(3,3) has exactly
/// six structural matches (Fig. 6).
inline TimeSeriesGraph PaperFig2Graph() {
  return MakeGraph({
      {0, 1, 13, 5}, {0, 1, 15, 7},             // u1 -> u2
      {1, 2, 18, 20},                           // u2 -> u3
      {2, 0, 10, 10},                           // u3 -> u1
      {2, 3, 19, 5}, {2, 3, 21, 4},             // u3 -> u4
      {3, 1, 23, 7},                            // u4 -> u2
      {3, 0, 1, 2},  {3, 0, 3, 5},              // u4 -> u1
      {3, 2, 11, 10},                           // u4 -> u3
  });
}

/// The structural match of Fig. 7 / Table 2 as a 3-vertex graph.
/// Vertices: u1=0, u2=1, u3=2. The motif M(3,3) mapped with
/// node0->u3, node1->u2, node2->u1 has e1 = u3->u2, e2 = u2->u1,
/// e3 = u1->u3.
inline TimeSeriesGraph PaperFig7Graph() {
  return MakeGraph({
      {2, 1, 10, 5}, {2, 1, 13, 2}, {2, 1, 15, 3}, {2, 1, 18, 7},  // e1
      {1, 0, 9, 4},  {1, 0, 11, 3}, {1, 0, 16, 3},                 // e2
      {0, 2, 14, 4}, {0, 2, 19, 6}, {0, 2, 24, 3}, {0, 2, 25, 2},  // e3
  });
}

}  // namespace testing_util
}  // namespace flowmotif

#endif  // FLOWMOTIF_TESTS_TEST_UTIL_H_
