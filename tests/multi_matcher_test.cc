#include "core/multi_matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/motif_catalog.h"
#include "core/structural_match.h"
#include "gen/presets.h"
#include "graph/interaction_graph.h"
#include "test_util.h"
#include "util/random.h"

namespace flowmotif {
namespace {

using testing_util::PaperFig2Graph;

TEST(MultiMatcherTest, RejectsBadMotifSets) {
  TimeSeriesGraph g = PaperFig2Graph();
  EXPECT_FALSE(MultiStructuralMatcher::Create(g, {}).ok());

  // Non-path motif.
  Motif fan = *Motif::FromEdgeList({{0, 1}, {0, 2}});
  EXPECT_FALSE(MultiStructuralMatcher::Create(g, {fan}).ok());

  // Non-canonical labels: path starts at node 1.
  Motif shifted = *Motif::FromSpanningPath({1, 0, 2});
  EXPECT_FALSE(MultiStructuralMatcher::Create(g, {shifted}).ok());
}

TEST(MultiMatcherTest, WholeCatalogAgreesWithSingleMatcher) {
  TimeSeriesGraph g = PaperFig2Graph();
  StatusOr<MultiStructuralMatcher> multi =
      MultiStructuralMatcher::Create(g, MotifCatalog::All());
  ASSERT_TRUE(multi.ok()) << multi.status();

  std::vector<int64_t> shared_counts = multi->CountAll();
  ASSERT_EQ(shared_counts.size(), MotifCatalog::All().size());
  for (size_t i = 0; i < MotifCatalog::All().size(); ++i) {
    StructuralMatcher single(g, MotifCatalog::All()[i]);
    EXPECT_EQ(shared_counts[i], single.CountMatches())
        << MotifCatalog::All()[i].name();
  }
}

TEST(MultiMatcherTest, BindingsMatchSingleMatcherExactly) {
  TimeSeriesGraph g = PaperFig2Graph();
  std::vector<Motif> motifs{*MotifCatalog::ByName("M(3,2)"),
                            *MotifCatalog::ByName("M(3,3)"),
                            *MotifCatalog::ByName("M(4,3)")};
  StatusOr<MultiStructuralMatcher> multi =
      MultiStructuralMatcher::Create(g, motifs);
  ASSERT_TRUE(multi.ok());

  std::map<size_t, std::set<MatchBinding>> shared;
  multi->FindAll([&shared](size_t idx, MatchRef binding) {
    EXPECT_TRUE(shared[idx].insert(binding.ToBinding()).second)
        << "duplicate match for motif " << idx;
    return true;
  });

  for (size_t i = 0; i < motifs.size(); ++i) {
    std::vector<MatchBinding> singles =
        StructuralMatcher(g, motifs[i]).FindAllMatches();
    std::set<MatchBinding> expected(singles.begin(), singles.end());
    EXPECT_EQ(shared[i], expected) << motifs[i].name();
  }
}

TEST(MultiMatcherTest, AgreesOnRandomGraphs) {
  for (uint64_t seed : {10u, 11u}) {
    Rng rng(seed);
    InteractionGraph mg;
    mg.EnsureVertices(10);
    for (int i = 0; i < 120; ++i) {
      VertexId u = static_cast<VertexId>(rng.NextBounded(10));
      VertexId v = static_cast<VertexId>(rng.NextBounded(10));
      if (u == v) continue;
      (void)mg.AddEdge(u, v, static_cast<Timestamp>(i), 1.0);
    }
    TimeSeriesGraph g = TimeSeriesGraph::Build(mg);
    StatusOr<MultiStructuralMatcher> multi =
        MultiStructuralMatcher::Create(g, MotifCatalog::All());
    ASSERT_TRUE(multi.ok());
    std::vector<int64_t> counts = multi->CountAll();
    for (size_t i = 0; i < MotifCatalog::All().size(); ++i) {
      EXPECT_EQ(counts[i],
                StructuralMatcher(g, MotifCatalog::All()[i]).CountMatches())
          << MotifCatalog::All()[i].name() << " seed=" << seed;
    }
  }
}

TEST(MultiMatcherTest, TrieSharesPrefixes) {
  TimeSeriesGraph g = PaperFig2Graph();
  // The three chains are prefixes of one another: the trie needs just
  // one branch of 6 nodes (5 path entries + root... M(5,4) has 5 path
  // entries -> root + 5 = 6).
  std::vector<Motif> chains{*MotifCatalog::ByName("M(3,2)"),
                            *MotifCatalog::ByName("M(4,3)"),
                            *MotifCatalog::ByName("M(5,4)")};
  StatusOr<MultiStructuralMatcher> multi =
      MultiStructuralMatcher::Create(g, chains);
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(multi->num_trie_nodes(), 6);

  // Separate motifs would need 3 + 4 + 5 = 12 non-root nodes; sharing
  // brings the whole catalog well under the sum of its path lengths.
  StatusOr<MultiStructuralMatcher> full =
      MultiStructuralMatcher::Create(g, MotifCatalog::All());
  ASSERT_TRUE(full.ok());
  int64_t total_entries = 0;
  for (const Motif& m : MotifCatalog::All()) {
    total_entries += static_cast<int64_t>(m.path().size());
  }
  EXPECT_LT(full->num_trie_nodes(), total_entries / 2);
}

TEST(MultiMatcherTest, EarlyStopPropagates) {
  TimeSeriesGraph g = PaperFig2Graph();
  StatusOr<MultiStructuralMatcher> multi =
      MultiStructuralMatcher::Create(g, MotifCatalog::All());
  ASSERT_TRUE(multi.ok());
  int seen = 0;
  multi->FindAll([&seen](size_t, MatchRef) {
    ++seen;
    return seen < 3;
  });
  EXPECT_EQ(seen, 3);
}

TEST(MultiMatcherTest, WorksOnGeneratedDataset) {
  TimeSeriesGraph g =
      GenerateDataset(GetPreset(DatasetKind::kPassenger), 0.2);
  StatusOr<MultiStructuralMatcher> multi =
      MultiStructuralMatcher::Create(g, MotifCatalog::All());
  ASSERT_TRUE(multi.ok());
  std::vector<int64_t> counts = multi->CountAll();
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i],
              StructuralMatcher(g, MotifCatalog::All()[i]).CountMatches());
  }
}

}  // namespace
}  // namespace flowmotif
