#include "rlc/svc/router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace rlc::svc {
namespace {

/// A spread of distinct query keys: both technologies over the inductance
/// range, with a few engine/threshold variants mixed in.
std::vector<QueryRequest> distinct_requests(int n) {
  std::vector<QueryRequest> reqs;
  reqs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    QueryRequest q;
    q.technology = (i % 2 == 0) ? "250nm" : "100nm";
    q.l = 5.0e-6 * i / std::max(n - 1, 1);
    if (i % 7 == 3) q.with_exact_delay = true;
    reqs.push_back(q);
  }
  return reqs;
}

TEST(Placement, InRangeAndDeterministic) {
  // The placement function is pure: same (hash, shards) -> same shard, on
  // every call, for any shard count.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int trial = 0; trial < 1000; ++trial) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    for (std::size_t shards : {1u, 2u, 3u, 5u, 8u, 16u, 64u}) {
      const std::size_t first = ShardRouter::placement(h, shards);
      EXPECT_LT(first, shards);
      EXPECT_EQ(ShardRouter::placement(h, shards), first);
    }
  }
}

TEST(Placement, ZeroAndOneShardAlwaysLandOnShardZero) {
  EXPECT_EQ(ShardRouter::placement(123456789ULL, 0), 0u);
  EXPECT_EQ(ShardRouter::placement(123456789ULL, 1), 0u);
}

TEST(Placement, SpreadsKeysAcrossShards) {
  // Not a statistical test — just that no shard is starved or hogged
  // outrageously for a well-mixed key stream.
  const std::size_t shards = 8;
  std::vector<int> counts(shards, 0);
  std::uint64_t h = 1;
  const int keys = 8000;
  for (int i = 0; i < keys; ++i) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    ++counts[ShardRouter::placement(h, shards)];
  }
  for (std::size_t s = 0; s < shards; ++s) {
    EXPECT_GT(counts[s], keys / static_cast<int>(shards) / 2) << "shard " << s;
    EXPECT_LT(counts[s], keys * 2 / static_cast<int>(shards)) << "shard " << s;
  }
}

TEST(Placement, GrowingTheShardCountOnlyMovesKeysToTheNewShard) {
  // The jump-consistent-hash contract: going from S to S+1 shards, a key
  // either stays where it was or moves to the NEW shard — and only about
  // 1/(S+1) of keys move.  This is why a resized deployment keeps its warm
  // caches.
  std::uint64_t h = 42;
  const int keys = 10000;
  for (std::size_t s : {2u, 4u, 8u}) {
    int moved = 0;
    std::uint64_t x = h;
    for (int i = 0; i < keys; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::size_t before = ShardRouter::placement(x, s);
      const std::size_t after = ShardRouter::placement(x, s + 1);
      if (after != before) {
        EXPECT_EQ(after, s) << "a moved key must land on the new shard";
        ++moved;
      }
    }
    const double frac = static_cast<double>(moved) / keys;
    EXPECT_LT(frac, 2.0 / static_cast<double>(s + 1)) << "shards " << s;
    EXPECT_GT(frac, 0.0) << "shards " << s;
  }
}

TEST(Router, ShardOfIsStableAcrossRouterInstances) {
  const auto reqs = distinct_requests(32);
  RouterOptions opts;
  opts.shards = 4;
  opts.threads_per_shard = 1;
  opts.cache_capacity = 0;
  ShardRouter a(opts);
  ShardRouter b(opts);
  for (const QueryRequest& q : reqs) {
    EXPECT_EQ(a.shard_of(q), b.shard_of(q));
    EXPECT_LT(a.shard_of(q), a.shards());
  }
}

TEST(Router, ZeroShardsIsPromotedToOne) {
  RouterOptions opts;
  opts.shards = 0;
  opts.threads_per_shard = 1;
  ShardRouter r(opts);
  EXPECT_EQ(r.shards(), 1u);
  EXPECT_EQ(r.threads(), 1u);
}

TEST(Router, ThreadsSumsTheShardPools) {
  RouterOptions opts;
  opts.shards = 3;
  opts.threads_per_shard = 2;
  ShardRouter r(opts);
  EXPECT_EQ(r.threads(), 6u);
}

TEST(Router, SameKeyHitsTheSameShardCache) {
  RouterOptions opts;
  opts.shards = 4;
  opts.threads_per_shard = 1;
  opts.cache_capacity = 64;
  ShardRouter r(opts);

  QueryRequest q;
  q.l = 2.0e-6;
  const std::size_t home = r.shard_of(q);

  // The router only places; the query is answered on its home shard.
  const auto cold = r.shard(home).submit(q);
  ASSERT_TRUE(cold.is_ok()) << cold.status().to_string();
  EXPECT_FALSE(cold->from_cache);
  const auto warm = r.shard(home).submit(q);
  ASSERT_TRUE(warm.is_ok());
  EXPECT_TRUE(warm->from_cache);
  EXPECT_TRUE(warm->same_answer(*cold));

  // All traffic for the key went to its home shard; the others never saw
  // the request at all.
  for (std::size_t s = 0; s < r.shards(); ++s) {
    const auto stats = r.shard(s).cache_stats();
    if (s == home) {
      EXPECT_EQ(stats.hits, 1u);
      EXPECT_EQ(stats.misses, 1u);
    } else {
      EXPECT_EQ(stats.hits + stats.misses, 0u) << "shard " << s;
    }
  }
}

}  // namespace
}  // namespace rlc::svc
