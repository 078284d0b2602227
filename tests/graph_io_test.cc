#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "test_util.h"

namespace flowmotif {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "graph_io_test_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".txt";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(GraphIoTest, SaveLoadRoundTripInteractionGraph) {
  InteractionGraph g;
  ASSERT_TRUE(g.AddEdge(0, 1, 13, 5).ok());
  ASSERT_TRUE(g.AddEdge(0, 1, 15, 7.25).ok());
  ASSERT_TRUE(g.AddEdge(2, 0, 10, 10).ok());
  ASSERT_TRUE(SaveInteractionGraph(g, path_).ok());

  StatusOr<InteractionGraph> loaded = LoadInteractionGraph(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_interactions(), 3);
  EXPECT_EQ(loaded->num_vertices(), 3);
  EXPECT_EQ(loaded->edges()[1].t, 15);
  EXPECT_DOUBLE_EQ(loaded->edges()[1].f, 7.25);
}

TEST_F(GraphIoTest, SaveTimeSeriesGraphRoundTripsThroughBuild) {
  TimeSeriesGraph g = testing_util::PaperFig2Graph();
  ASSERT_TRUE(SaveTimeSeriesGraph(g, path_).ok());

  StatusOr<InteractionGraph> loaded = LoadInteractionGraph(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  TimeSeriesGraph rebuilt = TimeSeriesGraph::Build(*loaded);

  ASSERT_EQ(rebuilt.num_pairs(), g.num_pairs());
  for (size_t i = 0; i < static_cast<size_t>(g.num_pairs()); ++i) {
    EXPECT_EQ(rebuilt.pair(i).src, g.pair(i).src);
    EXPECT_EQ(rebuilt.pair(i).dst, g.pair(i).dst);
    ASSERT_EQ(rebuilt.pair(i).series.size(), g.pair(i).series.size());
    for (size_t j = 0; j < g.pair(i).series.size(); ++j) {
      EXPECT_EQ(rebuilt.pair(i).series.at(j), g.pair(i).series.at(j));
    }
  }
}

TEST_F(GraphIoTest, LoadSkipsCommentsAndWhitespaceVariants) {
  {
    std::ofstream out(path_);
    out << "# comment line\n";
    out << "0 1 10 2.5\n";
    out << "\n";
    out << "1\t2\t20\t3\n";     // tabs
    out << "2  3   30   4\n";   // multiple spaces
  }
  StatusOr<InteractionGraph> loaded = LoadInteractionGraph(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_interactions(), 3);
}

TEST_F(GraphIoTest, LoadRejectsMalformedRows) {
  {
    std::ofstream out(path_);
    out << "0 1 10\n";  // missing flow
  }
  EXPECT_FALSE(LoadInteractionGraph(path_).ok());

  {
    std::ofstream out(path_);
    out << "0 1 ten 1.0\n";  // bad time
  }
  EXPECT_FALSE(LoadInteractionGraph(path_).ok());

  {
    std::ofstream out(path_);
    out << "0 1 10 -3\n";  // negative flow
  }
  EXPECT_FALSE(LoadInteractionGraph(path_).ok());

  {
    std::ofstream out(path_);
    out << "a 1 10 1\n";  // bad vertex
  }
  EXPECT_FALSE(LoadInteractionGraph(path_).ok());
}

TEST_F(GraphIoTest, LoadRejectsNonFiniteFlow) {
  // Regression: strtod parses "inf" (and overflows "1e400" to inf), and
  // the positivity check alone accepted it.
  for (const char* flow : {"inf", "1e400", "nan"}) {
    SCOPED_TRACE(flow);
    {
      std::ofstream out(path_);
      out << "0 1 50 3\n";
      out << "0 1 1 " << flow << "\n";
    }
    StatusOr<InteractionGraph> loaded = LoadInteractionGraph(path_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find(":2"), std::string::npos);
  }
}

TEST_F(GraphIoTest, ErrorMessagesIncludeLineNumbers) {
  {
    std::ofstream out(path_);
    out << "0 1 10 1\n";
    out << "0 1 bad 1\n";
  }
  StatusOr<InteractionGraph> loaded = LoadInteractionGraph(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find(":2"), std::string::npos);
}

TEST_F(GraphIoTest, MissingFileIsIoError) {
  StatusOr<InteractionGraph> loaded =
      LoadInteractionGraph("/nonexistent/nowhere.txt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(GraphIoTest, IntegralFlowsWrittenWithoutDecimalPoint) {
  InteractionGraph g;
  ASSERT_TRUE(g.AddEdge(0, 1, 5, 3.0).ok());
  ASSERT_TRUE(SaveInteractionGraph(g, path_).ok());
  std::ifstream in(path_);
  std::string line;
  std::getline(in, line);  // header comment
  std::getline(in, line);
  EXPECT_EQ(line, "0 1 5 3");
}

}  // namespace
}  // namespace flowmotif
