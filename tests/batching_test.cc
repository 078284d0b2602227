#include "engine/batching.h"

#include <gtest/gtest.h>

#include "util/partition.h"

namespace flowmotif {
namespace {

void ExpectContiguousCover(const std::vector<IndexRange>& batches,
                           int64_t n) {
  int64_t expected_begin = 0;
  for (const IndexRange& batch : batches) {
    EXPECT_EQ(batch.begin, expected_begin);
    EXPECT_GT(batch.end, batch.begin);
    expected_begin = batch.end;
  }
  EXPECT_EQ(expected_begin, n);
}

TEST(BatchingTest, EmptyInputYieldsNoBatches) {
  EXPECT_TRUE(PartitionIndexSpace(0, 4).empty());
}

TEST(BatchingTest, SingleThreadIsOneBatch) {
  const auto batches = PartitionIndexSpace(1000, 1);
  ASSERT_EQ(batches.size(), 1u);
  ExpectContiguousCover(batches, 1000);
}

TEST(BatchingTest, DerivedBatchesCoverAndGiveSlack) {
  for (int threads : {2, 4, 8}) {
    const auto batches = PartitionIndexSpace(10000, threads);
    ExpectContiguousCover(batches, 10000);
    // Several batches per thread for load balancing.
    EXPECT_GE(static_cast<int>(batches.size()), threads);
  }
}

TEST(BatchingTest, FewerMatchesThanThreads) {
  const auto batches = PartitionIndexSpace(3, 8);
  ExpectContiguousCover(batches, 3);
  for (const IndexRange& batch : batches) EXPECT_EQ(batch.size(), 1);
}

TEST(BatchingTest, ExplicitBatchSizeRespected) {
  const auto batches = PartitionIndexSpace(10, 4, 4);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].size(), 4);
  EXPECT_EQ(batches[1].size(), 4);
  EXPECT_EQ(batches[2].size(), 2);
  ExpectContiguousCover(batches, 10);
}

TEST(BatchingTest, ExplicitBatchSizeAppliesToSingleThreadToo) {
  const auto batches = PartitionIndexSpace(10, 1, 3);
  ASSERT_EQ(batches.size(), 4u);
  ExpectContiguousCover(batches, 10);
}

MatchBinding Binding(VertexId v) { return MatchBinding{v}; }

TEST(ShardPrefixMergerTest, InOrderCompletionReleasesImmediately) {
  ShardPrefixMerger merger(2);
  auto released = merger.Complete(0, {Binding(0), Binding(1)});
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].shard, 0);
  EXPECT_EQ(released[0].released.first_match_index, 0);
  EXPECT_EQ(released[0].released.matches->size(), 2u);
  released = merger.Complete(1, {Binding(2)});
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].shard, 1);
  EXPECT_EQ(released[0].released.first_match_index, 2);
  EXPECT_EQ(merger.num_released(), 3);
}

TEST(ShardPrefixMergerTest, OutOfOrderCompletionHeldUntilPrefixForms) {
  ShardPrefixMerger merger(3);
  // Shard 2 first: nothing can be released yet.
  EXPECT_TRUE(merger.Complete(2, {Binding(5)}).empty());
  EXPECT_EQ(merger.num_released(), 0);
  // Shard 0 releases itself only.
  auto released = merger.Complete(0, {Binding(1), Binding(2)});
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].released.first_match_index, 0);
  // Shard 1 completes the prefix: both 1 and the held 2 come out, with
  // global indices in serial order.
  released = merger.Complete(1, {Binding(3), Binding(4)});
  ASSERT_EQ(released.size(), 2u);
  EXPECT_EQ(released[0].shard, 1);
  EXPECT_EQ(released[0].released.first_match_index, 2);
  EXPECT_EQ((*released[0].released.matches)[0], Binding(3));
  EXPECT_EQ(released[1].shard, 2);
  EXPECT_EQ(released[1].released.first_match_index, 4);
  EXPECT_EQ((*released[1].released.matches)[0], Binding(5));
  EXPECT_EQ(merger.num_released(), 5);
}

TEST(ShardPrefixMergerTest, EmptyShardsReleaseWithZeroWidth) {
  ShardPrefixMerger merger(3);
  EXPECT_TRUE(merger.Complete(1, {}).empty());
  auto released = merger.Complete(0, {});
  // Two empty shards flush; indices do not advance.
  ASSERT_EQ(released.size(), 2u);
  EXPECT_EQ(released[0].released.first_match_index, 0);
  EXPECT_EQ(released[1].released.first_match_index, 0);
  released = merger.Complete(2, {Binding(7)});
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].released.first_match_index, 0);
  EXPECT_EQ(merger.num_released(), 1);
}

TEST(ShardPrefixMergerTest, FreeShardReclaimsBufferKeepsAccounting) {
  ShardPrefixMerger merger(2);
  auto released = merger.Complete(0, {Binding(0), Binding(1)});
  ASSERT_EQ(released.size(), 1u);
  merger.FreeShard(released[0].shard);
  // The global index space and accounting are unaffected by the free.
  EXPECT_EQ(merger.num_released(), 2);
  released = merger.Complete(1, {Binding(2)});
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].released.first_match_index, 2);
  EXPECT_EQ(merger.num_released(), 3);
}

TEST(ShardPrefixMergerTest, CapInsideShardCutsItAndDropsLaterShards) {
  ShardPrefixMerger merger(3, /*max_matches=*/3);
  auto released = merger.Complete(0, {Binding(0), Binding(1)});
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].released.matches->size(), 2u);
  EXPECT_FALSE(merger.truncated());
  // Shard 1 straddles the cap: only its first match is released.
  released = merger.Complete(1, {Binding(2), Binding(3), Binding(4)});
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].released.first_match_index, 2);
  ASSERT_EQ(released[0].released.matches->size(), 1u);
  EXPECT_EQ((*released[0].released.matches)[0], Binding(2));
  EXPECT_TRUE(merger.truncated());
  // Past the cap a shard still releases, empty.
  released = merger.Complete(2, {Binding(5)});
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].released.first_match_index, 3);
  EXPECT_TRUE(released[0].released.matches->empty());
  EXPECT_EQ(merger.num_released(), 3);
}

TEST(ShardPrefixMergerTest, CapOnShardBoundary) {
  // Exactly max_matches matches before the boundary: shard 0 is kept
  // whole, and the cap counts as hit only once a later match is
  // dropped.
  ShardPrefixMerger merger(3, /*max_matches=*/2);
  auto released = merger.Complete(0, {Binding(0), Binding(1)});
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].released.matches->size(), 2u);
  EXPECT_FALSE(merger.truncated());
  released = merger.Complete(1, {});
  ASSERT_EQ(released.size(), 1u);
  EXPECT_FALSE(merger.truncated());
  released = merger.Complete(2, {Binding(2)});
  ASSERT_EQ(released.size(), 1u);
  EXPECT_TRUE(released[0].released.matches->empty());
  EXPECT_TRUE(merger.truncated());
  EXPECT_EQ(merger.num_released(), 2);

  // A list of exactly max_matches matches is not truncated.
  ShardPrefixMerger exact(2, /*max_matches=*/2);
  exact.Complete(0, {Binding(0)});
  exact.Complete(1, {Binding(1)});
  EXPECT_FALSE(exact.truncated());
  EXPECT_EQ(exact.num_released(), 2);
}

TEST(ShardPrefixMergerTest, CapOfZeroReleasesNothing) {
  ShardPrefixMerger merger(2, /*max_matches=*/0);
  auto released = merger.Complete(0, {Binding(0)});
  ASSERT_EQ(released.size(), 1u);
  EXPECT_TRUE(released[0].released.matches->empty());
  EXPECT_TRUE(merger.truncated());
  released = merger.Complete(1, {Binding(1)});
  ASSERT_EQ(released.size(), 1u);
  EXPECT_TRUE(released[0].released.matches->empty());
  EXPECT_EQ(merger.num_released(), 0);
}

TEST(ShardPrefixMergerTest, OutOfOrderCompletionPastCapCutsCanonically) {
  // Shards past the cap complete first; the cut still lands at the
  // canonical index, not at whatever completed first.
  ShardPrefixMerger merger(3, /*max_matches=*/3);
  EXPECT_TRUE(merger.Complete(2, {Binding(6), Binding(7)}).empty());
  EXPECT_TRUE(merger.Complete(1, {Binding(3), Binding(4), Binding(5)}).empty());
  EXPECT_FALSE(merger.truncated());
  auto released = merger.Complete(0, {Binding(1), Binding(2)});
  ASSERT_EQ(released.size(), 3u);
  EXPECT_EQ(released[0].released.matches->size(), 2u);
  EXPECT_EQ(released[1].released.first_match_index, 2);
  ASSERT_EQ(released[1].released.matches->size(), 1u);
  EXPECT_EQ((*released[1].released.matches)[0], Binding(3));
  EXPECT_EQ(released[2].released.first_match_index, 3);
  EXPECT_TRUE(released[2].released.matches->empty());
  EXPECT_TRUE(merger.truncated());
  EXPECT_EQ(merger.num_released(), 3);
}

}  // namespace
}  // namespace flowmotif
