// Property tests of core/window_cursor.h's window-list readers and
// their cross-query tier: lists served through a WindowListMru (with or
// without a tier) and through leased tier lookups are identical to
// uncached ComputeProcessedWindows results under concurrent readers
// (threads {2, 4, 8}), racing inserts of the same pair deduplicate to
// one stable pointer, saturated generations rotate instead of
// declining, and a lease keeps every pointer it was served valid across
// rotations and sweeps.
#include "core/window_cursor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/motif_catalog.h"
#include "core/sliding_window.h"
#include "graph/time_series_graph.h"
#include "test_util.h"
#include "util/cancellation.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace flowmotif {
namespace {

/// Random graph with enough distinct pair edges to exercise many cache
/// keys.
TimeSeriesGraph RandomGraph(uint64_t seed, int num_vertices,
                            int num_interactions, Timestamp time_span) {
  Rng rng(seed);
  InteractionGraph g;
  for (int i = 0; i < num_interactions; ++i) {
    const auto src = static_cast<VertexId>(
        rng.NextBounded(static_cast<uint64_t>(num_vertices)));
    auto dst = static_cast<VertexId>(
        rng.NextBounded(static_cast<uint64_t>(num_vertices)));
    if (dst == src) dst = (dst + 1) % num_vertices;
    const auto t = static_cast<Timestamp>(
        rng.NextBounded(static_cast<uint64_t>(time_span)));
    const Flow f = 1.0 + static_cast<Flow>(rng.NextBounded(5));
    const Status s = g.AddEdge(src, dst, t, f);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return TimeSeriesGraph::Build(g);
}

/// Every ordered pair of distinct pair-edge series in the graph — the
/// key population the evaluation paths present to the cache.
std::vector<std::pair<const EdgeSeries*, const EdgeSeries*>> AllSeriesPairs(
    const TimeSeriesGraph& graph) {
  std::vector<std::pair<const EdgeSeries*, const EdgeSeries*>> pairs;
  for (int64_t a = 0; a < graph.num_pairs(); ++a) {
    for (int64_t b = 0; b < graph.num_pairs(); ++b) {
      pairs.emplace_back(&graph.pair(static_cast<size_t>(a)).series,
                         &graph.pair(static_cast<size_t>(b)).series);
    }
  }
  return pairs;
}

TEST(SharedWindowCacheTest, ServesExactWindowLists) {
  const TimeSeriesGraph graph = RandomGraph(11, 5, 70, 40);
  for (const Timestamp delta : {Timestamp{0}, Timestamp{5}, Timestamp{20}}) {
    SharedWindowCache cache(delta);
    SharedWindowCache::TierLease lease = cache.AcquireTierLease();
    for (const auto& [first, last] : AllSeriesPairs(graph)) {
      const std::vector<Window>* cached =
          cache.LeasedGet(&lease, *first, *last);
      ASSERT_NE(cached, nullptr);
      EXPECT_EQ(*cached, ComputeProcessedWindows(*first, *last, delta));
      // A second lookup returns the very same published list.
      EXPECT_EQ(cache.LeasedGet(&lease, *first, *last), cached);
    }
  }
}

TEST(SharedWindowCacheTest, ConcurrentReadersSeeIdenticalLists) {
  // Many threads hammer the same key population — every thread races
  // both the builds and the reads — and each must observe exactly the
  // uncached result for every pair, every time.
  const TimeSeriesGraph graph = RandomGraph(23, 6, 90, 50);
  const std::vector<std::pair<const EdgeSeries*, const EdgeSeries*>> pairs =
      AllSeriesPairs(graph);
  constexpr Timestamp kDelta = 8;

  std::vector<std::vector<Window>> expected;
  expected.reserve(pairs.size());
  for (const auto& [first, last] : pairs) {
    expected.push_back(ComputeProcessedWindows(*first, *last, kDelta));
  }

  for (int num_threads : {2, 4, 8}) {
    SharedWindowCache cache(kDelta);
    std::atomic<int64_t> mismatches{0};
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(num_threads));
    for (int t = 0; t < num_threads; ++t) {
      // Each thread starts at a different offset so builds and reads of
      // the same pair interleave across threads.
      threads.emplace_back([&, t] {
        SharedWindowCache::TierLease lease = cache.AcquireTierLease();
        const size_t n = pairs.size();
        for (int round = 0; round < 3; ++round) {
          for (size_t i = 0; i < n; ++i) {
            const size_t at = (i + static_cast<size_t>(t) * n /
                                       static_cast<size_t>(num_threads)) %
                              n;
            const std::vector<Window>* got = cache.LeasedGet(
                &lease, *pairs[at].first, *pairs[at].second);
            if (got == nullptr || *got != expected[at]) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0) << "threads=" << num_threads;
    EXPECT_EQ(cache.size(), pairs.size()) << "threads=" << num_threads;
  }
}

TEST(SharedWindowCacheTest, RacingInsertsDeduplicateToOnePointer) {
  // All threads request the same single pair, each through its own
  // lease; whoever loses the CAS race must adopt the winner's list, so
  // every thread ends up with the one published pointer and the size
  // counter settles at 1.
  const TimeSeriesGraph graph = RandomGraph(31, 4, 50, 30);
  const EdgeSeries& first = graph.pair(0).series;
  const EdgeSeries& last =
      graph.pair(static_cast<size_t>(graph.num_pairs()) - 1).series;

  for (int num_threads : {2, 4, 8}) {
    SharedWindowCache cache(/*delta=*/10);
    std::vector<const std::vector<Window>*> seen(
        static_cast<size_t>(num_threads), nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < num_threads; ++t) {
      threads.emplace_back([&, t] {
        SharedWindowCache::TierLease lease = cache.AcquireTierLease();
        seen[static_cast<size_t>(t)] = cache.LeasedGet(&lease, first, last);
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < num_threads; ++t) {
      ASSERT_NE(seen[static_cast<size_t>(t)], nullptr);
      EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]);
    }
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(*seen[0], ComputeProcessedWindows(first, last, 10));
  }
}

TEST(SharedWindowCacheTest, EnsembleViewsHitTheSameEntries) {
  // The cache keys on timestamp-storage identity, so the real graph and
  // its flow-permuted views must share entries: a list published for a
  // pair of the real graph is returned — same pointer — for the
  // corresponding pair of every view, and serving two views inserts
  // nothing new.
  const TimeSeriesGraph graph = RandomGraph(61, 5, 70, 40);
  const TimeSeriesGraph view_a = graph.WithPermutedFlows(17, 1);
  const TimeSeriesGraph view_b = graph.WithPermutedFlows(17, 2);
  constexpr Timestamp kDelta = 9;

  SharedWindowCache cache(kDelta);
  SharedWindowCache::TierLease lease = cache.AcquireTierLease();

  const std::vector<std::pair<const EdgeSeries*, const EdgeSeries*>> pairs =
      AllSeriesPairs(graph);
  std::vector<const std::vector<Window>*> published;
  published.reserve(pairs.size());
  for (const auto& [first, last] : pairs) {
    published.push_back(cache.LeasedGet(&lease, *first, *last));
    ASSERT_NE(published.back(), nullptr);
  }
  const size_t size_after_real = cache.size();
  EXPECT_EQ(size_after_real, pairs.size());

  for (const TimeSeriesGraph* view : {&view_a, &view_b}) {
    for (size_t i = 0; i < pairs.size(); ++i) {
      // The corresponding pair on the view: same pair indices, so the
      // series share timestamp identity with the real graph's.
      const size_t a = i / static_cast<size_t>(graph.num_pairs());
      const size_t b = i % static_cast<size_t>(graph.num_pairs());
      const EdgeSeries& first = view->pair(a).series;
      const EdgeSeries& last = view->pair(b).series;
      EXPECT_EQ(cache.LeasedGet(&lease, first, last), published[i])
          << "view pair " << a << "," << b;
    }
  }
  // No new entries were inserted for the views.
  EXPECT_EQ(cache.size(), size_after_real);
}

TEST(SharedWindowCacheTest, ConcurrentEnsembleReadersSeeIdenticalLists) {
  // Concurrent readers on the real graph and two permuted views: every
  // thread reads through a different graph of the ensemble, all must
  // observe exactly the uncached window list for the underlying
  // timestamp pair, and the entry population stays that of one graph.
  const TimeSeriesGraph graph = RandomGraph(67, 5, 80, 50);
  const TimeSeriesGraph view_a = graph.WithPermutedFlows(23, 1);
  const TimeSeriesGraph view_b = graph.WithPermutedFlows(23, 2);
  const TimeSeriesGraph* graphs[] = {&graph, &view_a, &view_b};
  constexpr Timestamp kDelta = 11;

  const std::vector<std::pair<const EdgeSeries*, const EdgeSeries*>> pairs =
      AllSeriesPairs(graph);
  std::vector<std::vector<Window>> expected;
  expected.reserve(pairs.size());
  for (const auto& [first, last] : pairs) {
    expected.push_back(ComputeProcessedWindows(*first, *last, kDelta));
  }

  for (int num_threads : {2, 4, 8}) {
    SharedWindowCache cache(kDelta);
    std::atomic<int64_t> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < num_threads; ++t) {
      threads.emplace_back([&, t] {
        SharedWindowCache::TierLease lease = cache.AcquireTierLease();
        const TimeSeriesGraph& mine = *graphs[static_cast<size_t>(t) % 3];
        const size_t np = static_cast<size_t>(mine.num_pairs());
        for (int round = 0; round < 3; ++round) {
          for (size_t i = 0; i < np * np; ++i) {
            const size_t at =
                (i + static_cast<size_t>(t) * 7) % (np * np);
            const EdgeSeries& first = mine.pair(at / np).series;
            const EdgeSeries& last = mine.pair(at % np).series;
            const std::vector<Window>* got =
                cache.LeasedGet(&lease, first, last);
            if (got == nullptr || *got != expected[at]) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0) << "threads=" << num_threads;
    EXPECT_EQ(cache.size(), pairs.size()) << "threads=" << num_threads;
  }
}

TEST(SharedWindowCacheTest, ServesExactListsUnderForcedRotation) {
  // A tier with a tiny per-generation cap is driven over a key
  // population far larger than the cap: every answer must still be the
  // exact uncached list, and the traffic must have forced rotations.
  const TimeSeriesGraph graph = RandomGraph(83, 6, 90, 50);
  const std::vector<std::pair<const EdgeSeries*, const EdgeSeries*>> pairs =
      AllSeriesPairs(graph);
  constexpr Timestamp kDelta = 7;
  constexpr size_t kCap = 3;
  ASSERT_GT(pairs.size(), 2 * kCap);

  std::unique_ptr<SharedWindowCache> cache =
      std::make_unique<SharedWindowCache>(kDelta, kCap);
  SharedWindowCache::TierLease lease = cache->AcquireTierLease();
  ASSERT_TRUE(lease.active());

  for (int round = 0; round < 2; ++round) {
    for (const auto& [first, last] : pairs) {
      const std::vector<Window>* got = cache->LeasedGet(&lease, *first, *last);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(*got, ComputeProcessedWindows(*first, *last, kDelta));
    }
  }
  EXPECT_GT(cache->num_rotations(), 0);
  // Between rotations at most two generations are published.
  EXPECT_LE(cache->size(), 2 * kCap);
}

TEST(SharedWindowCacheTest, LeaseRetainsPointersAcrossRotations) {
  // Every pointer LeasedGet ever returned stays valid — with its
  // original contents — for the lease's whole lifetime, even after the
  // generations that own those nodes rotate out of the publication
  // path. This is the property every window-list reader relies on when
  // the shared tier rotates underneath a running query.
  const TimeSeriesGraph graph = RandomGraph(89, 6, 90, 50);
  const std::vector<std::pair<const EdgeSeries*, const EdgeSeries*>> pairs =
      AllSeriesPairs(graph);
  constexpr Timestamp kDelta = 9;
  constexpr size_t kCap = 2;

  std::unique_ptr<SharedWindowCache> cache =
      std::make_unique<SharedWindowCache>(kDelta, kCap);
  SharedWindowCache::TierLease lease = cache->AcquireTierLease();

  std::vector<const std::vector<Window>*> served;
  served.reserve(pairs.size());
  for (const auto& [first, last] : pairs) {
    served.push_back(cache->LeasedGet(&lease, *first, *last));
    ASSERT_NE(served.back(), nullptr);
  }
  ASSERT_GT(cache->num_rotations(), 0);

  // Re-verify every previously returned pointer after all rotations.
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(*served[i], ComputeProcessedWindows(*pairs[i].first,
                                                  *pairs[i].second, kDelta));
  }
}

TEST(SharedWindowCacheTest, PromotedPrevHitSurvivesRotationUntouchedDoesNot) {
  // The two-generation clock: an entry touched while in the previous
  // generation is promoted into the current one and survives the next
  // rotation; an untouched neighbor ages out and must be recomputed.
  const TimeSeriesGraph graph = RandomGraph(31, 4, 50, 30);
  ASSERT_GE(graph.num_pairs(), 4);
  const EdgeSeries& target = graph.pair(0).series;
  const EdgeSeries& filler_b = graph.pair(1).series;
  const EdgeSeries& filler_c = graph.pair(2).series;
  const EdgeSeries& filler_d = graph.pair(3).series;
  constexpr Timestamp kDelta = 10;

  std::unique_ptr<SharedWindowCache> cache =
      std::make_unique<SharedWindowCache>(kDelta, /*max_entries=*/2);
  SharedWindowCache::TierLease lease = cache->AcquireTierLease();

  // Generation 1 fills with {target, B}; C saturates it and rotates.
  ASSERT_NE(cache->LeasedGet(&lease, target, target), nullptr);
  ASSERT_NE(cache->LeasedGet(&lease, filler_b, filler_b), nullptr);
  ASSERT_NE(cache->LeasedGet(&lease, filler_c, filler_c), nullptr);
  ASSERT_EQ(cache->num_rotations(), 1);

  // Touch the target while it sits in the previous generation: a hit,
  // promoted into the current one.
  int64_t hits_before = cache->num_hits();
  ASSERT_NE(cache->LeasedGet(&lease, target, target), nullptr);
  EXPECT_EQ(cache->num_hits(), hits_before + 1);

  // D saturates the current generation {C, target-copy} and rotates
  // again; generation 1 (with untouched B) leaves the publication path.
  ASSERT_NE(cache->LeasedGet(&lease, filler_d, filler_d), nullptr);
  ASSERT_EQ(cache->num_rotations(), 2);

  // The promoted target still hits; untouched B misses (recomputed, so
  // still exact — just not a hit).
  hits_before = cache->num_hits();
  const std::vector<Window>* target_got =
      cache->LeasedGet(&lease, target, target);
  ASSERT_NE(target_got, nullptr);
  EXPECT_EQ(cache->num_hits(), hits_before + 1);
  EXPECT_EQ(*target_got, ComputeProcessedWindows(target, target, kDelta));

  hits_before = cache->num_hits();
  const std::vector<Window>* b_got =
      cache->LeasedGet(&lease, filler_b, filler_b);
  ASSERT_NE(b_got, nullptr);
  EXPECT_EQ(cache->num_hits(), hits_before);  // miss: aged out
  EXPECT_EQ(*b_got, ComputeProcessedWindows(filler_b, filler_b, kDelta));
}

TEST(SharedWindowCacheTest, SweepGenerationsKeepsLiveDropsDead) {
  // SweepGenerations rebuilds the generation pair keeping only entries
  // whose identities satisfy the predicate — the serving layer's
  // post-seal invalidation. Kept entries still hit through a fresh
  // lease; dropped ones are recomputed exactly; old leases keep their
  // pointers.
  const TimeSeriesGraph graph = RandomGraph(97, 5, 70, 40);
  ASSERT_GE(graph.num_pairs(), 2);
  const std::vector<std::pair<const EdgeSeries*, const EdgeSeries*>> pairs =
      AllSeriesPairs(graph);
  constexpr Timestamp kDelta = 8;

  std::unique_ptr<SharedWindowCache> cache =
      std::make_unique<SharedWindowCache>(kDelta, /*max_entries=*/256);
  SharedWindowCache::TierLease old_lease = cache->AcquireTierLease();
  std::vector<const std::vector<Window>*> served;
  for (const auto& [first, last] : pairs) {
    served.push_back(cache->LeasedGet(&old_lease, *first, *last));
    ASSERT_NE(served.back(), nullptr);
  }
  EXPECT_EQ(cache->size(), pairs.size());

  // Keep only entries keyed entirely on pair 0's timestamp storage —
  // exactly the (0, 0) entry.
  const StorageIdentity live_id = graph.pair(0).series.timestamp_identity();
  cache->SweepGenerations([&](const StorageIdentity& id) {
    return id == live_id;
  });
  EXPECT_EQ(cache->size(), 1u);

  // A fresh lease sees the swept pair: the surviving entry hits, a
  // dropped one misses and is recomputed bit-exactly.
  SharedWindowCache::TierLease fresh = cache->AcquireTierLease();
  const EdgeSeries& live_series = graph.pair(0).series;
  int64_t hits_before = cache->num_hits();
  const std::vector<Window>* kept =
      cache->LeasedGet(&fresh, live_series, live_series);
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(cache->num_hits(), hits_before + 1);
  EXPECT_EQ(*kept, ComputeProcessedWindows(live_series, live_series, kDelta));

  const EdgeSeries& dead_series = graph.pair(1).series;
  hits_before = cache->num_hits();
  const std::vector<Window>* dropped =
      cache->LeasedGet(&fresh, dead_series, dead_series);
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(cache->num_hits(), hits_before);
  EXPECT_EQ(*dropped,
            ComputeProcessedWindows(dead_series, dead_series, kDelta));

  // The old lease's pointers are untouched by the sweep.
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(*served[i], ComputeProcessedWindows(*pairs[i].first,
                                                  *pairs[i].second, kDelta));
  }
}

TEST(SharedWindowCacheTest, ConcurrentLeasedReadersUnderTinyCap) {
  // Several threads, each with its own lease, hammer a key population
  // far beyond the per-generation cap so rotations race with lookups,
  // promotions, and inserts. Every answer must be non-null (a tier
  // rotates rather than declining) and exact.
  const TimeSeriesGraph graph = RandomGraph(101, 6, 90, 50);
  const std::vector<std::pair<const EdgeSeries*, const EdgeSeries*>> pairs =
      AllSeriesPairs(graph);
  constexpr Timestamp kDelta = 12;
  constexpr size_t kCap = 3;

  std::vector<std::vector<Window>> expected;
  expected.reserve(pairs.size());
  for (const auto& [first, last] : pairs) {
    expected.push_back(ComputeProcessedWindows(*first, *last, kDelta));
  }

  for (int num_threads : {2, 4}) {
    std::unique_ptr<SharedWindowCache> cache =
        std::make_unique<SharedWindowCache>(kDelta, kCap);
    std::atomic<int64_t> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < num_threads; ++t) {
      threads.emplace_back([&, t] {
        SharedWindowCache::TierLease lease = cache->AcquireTierLease();
        const size_t n = pairs.size();
        for (int round = 0; round < 3; ++round) {
          for (size_t i = 0; i < n; ++i) {
            const size_t at = (i * 31 + static_cast<size_t>(t) * 7) % n;
            const std::vector<Window>* got =
                cache->LeasedGet(&lease, *pairs[at].first, *pairs[at].second);
            if (got == nullptr || *got != expected[at]) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0) << "threads=" << num_threads;
    EXPECT_GT(cache->num_rotations(), 0) << "threads=" << num_threads;
  }
}

TEST(WindowListMruTest, ServesExactListsWithAndWithoutTier) {
  // Each pair is requested twice in a row, as a run of matches sharing
  // a (first, last) pair would: the first request of a run misses the
  // slot (and asks the tier, when there is one), the second is a slot
  // hit that never reaches the tier. A one-entry-per-generation tier
  // rotates on almost every miss and must still serve exact lists.
  const TimeSeriesGraph graph = RandomGraph(13, 5, 70, 40);
  const std::vector<std::pair<const EdgeSeries*, const EdgeSeries*>> pairs =
      AllSeriesPairs(graph);
  for (const Timestamp delta : {Timestamp{0}, Timestamp{5}, Timestamp{20}}) {
    SharedWindowCache tier(delta, /*max_entries=*/1);
    WindowListMru tierless(delta);
    WindowListMru tiered(delta, &tier);
    for (const auto& [first, last] : pairs) {
      const std::vector<Window> expected =
          ComputeProcessedWindows(*first, *last, delta);
      for (int repeat = 0; repeat < 2; ++repeat) {
        EXPECT_EQ(tierless.Get(*first, *last), expected);
        EXPECT_EQ(tiered.Get(*first, *last), expected);
      }
    }
    // Consecutive distinct entries of AllSeriesPairs never share both
    // series, so every run's first request is exactly one tier lookup.
    EXPECT_EQ(tier.num_lookups(), static_cast<int64_t>(pairs.size()))
        << "delta=" << delta;
    EXPECT_GT(tier.num_rotations(), 0) << "delta=" << delta;
  }
}

TEST(WindowListMruTest, SlotKeysOnTimestampIdentity) {
  // A run of matches crossing from the real graph to a flow-permuted
  // view of it keeps its slot hit: the view's series share the real
  // series' timestamp identity, so the tier is not asked again.
  const TimeSeriesGraph graph = RandomGraph(19, 5, 70, 40);
  const TimeSeriesGraph view = graph.WithPermutedFlows(5, 1);
  constexpr Timestamp kDelta = 9;
  SharedWindowCache tier(kDelta);
  WindowListMru reader(kDelta, &tier);
  const size_t last = static_cast<size_t>(graph.num_pairs()) - 1;
  const std::vector<Window> expected = ComputeProcessedWindows(
      graph.pair(0).series, graph.pair(last).series, kDelta);
  EXPECT_EQ(reader.Get(graph.pair(0).series, graph.pair(last).series),
            expected);
  EXPECT_EQ(tier.num_lookups(), 1);
  EXPECT_EQ(reader.Get(view.pair(0).series, view.pair(last).series),
            expected);
  EXPECT_EQ(tier.num_lookups(), 1);
}

TEST(WindowListMruTest, LeaseKeepsSlotValidAcrossRotationAndSweep) {
  // A reader's slot may point into a tier generation. Another reader
  // then forces rotations past it and a sweep drops every entry; the
  // first reader's lease must keep that list alive and unchanged (ASan
  // turns a premature free into a failure), and asking again for the
  // same pair is a slot hit.
  const TimeSeriesGraph graph = RandomGraph(37, 6, 90, 50);
  const std::vector<std::pair<const EdgeSeries*, const EdgeSeries*>> pairs =
      AllSeriesPairs(graph);
  constexpr Timestamp kDelta = 10;
  SharedWindowCache tier(kDelta, /*max_entries=*/2);
  WindowListMru held(kDelta, &tier);
  const EdgeSeries& first = *pairs.front().first;
  const EdgeSeries& last = *pairs.front().second;
  const std::vector<Window>& slot = held.Get(first, last);
  const std::vector<Window> expected =
      ComputeProcessedWindows(first, last, kDelta);
  ASSERT_EQ(slot, expected);

  {
    WindowListMru churn(kDelta, &tier);
    for (const auto& [a, b] : pairs) churn.Get(*a, *b);
  }
  ASSERT_GT(tier.num_rotations(), 0);
  tier.SweepGenerations([](const StorageIdentity&) { return false; });
  EXPECT_EQ(tier.size(), 0u);

  EXPECT_EQ(slot, expected);
  const int64_t lookups = tier.num_lookups();
  EXPECT_EQ(&held.Get(first, last), &slot);
  EXPECT_EQ(tier.num_lookups(), lookups);
}

TEST(WindowListMruTest, BillsEveryComputedListAndNoSlotHit) {
  // The reader's control is billed at "cache.windows" once per list it
  // materializes — computed into its slot, or published into the tier
  // on its behalf — and never for a slot hit. A budget of exactly one
  // list's elements holds through repeated hits and trips on the next
  // computed list.
  const TimeSeriesGraph graph = RandomGraph(43, 5, 70, 40);
  constexpr Timestamp kDelta = 20;
  const std::vector<std::pair<const EdgeSeries*, const EdgeSeries*>> pairs =
      AllSeriesPairs(graph);
  // Two consecutive pairs with non-empty lists.
  std::vector<size_t> nonempty;
  for (size_t i = 0; i < pairs.size() && nonempty.size() < 2; ++i) {
    if (!ComputeProcessedWindows(*pairs[i].first, *pairs[i].second, kDelta)
             .empty()) {
      nonempty.push_back(i);
    }
  }
  ASSERT_EQ(nonempty.size(), 2u);
  const auto& [a_first, a_last] = pairs[nonempty[0]];
  const auto& [b_first, b_last] = pairs[nonempty[1]];
  const int64_t a_size = static_cast<int64_t>(
      ComputeProcessedWindows(*a_first, *a_last, kDelta).size());

  for (const bool with_tier : {false, true}) {
    WorkBudget budget;
    budget.max_window_elements = a_size;
    QueryControl control(nullptr, QueryDeadline(), budget);
    SharedWindowCache tier(kDelta);
    WindowListMru reader(kDelta, with_tier ? &tier : nullptr, &control);
    for (int repeat = 0; repeat < 3; ++repeat) reader.Get(*a_first, *a_last);
    EXPECT_FALSE(control.ShouldStop()) << "with_tier=" << with_tier;
    reader.Get(*b_first, *b_last);
    EXPECT_TRUE(control.ShouldStop()) << "with_tier=" << with_tier;
    EXPECT_EQ(control.Finish().stopped_at, failpoint::kCacheWindows)
        << "with_tier=" << with_tier;
  }
}

}  // namespace
}  // namespace flowmotif
