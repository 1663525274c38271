#include "cache/expert_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "cache/classic_policies.hpp"
#include "cache/mrs_policy.hpp"
#include "util/rng.hpp"

namespace hybrimoe::cache {
namespace {

using moe::ExpertId;

ExpertId id(std::uint16_t layer, std::uint16_t e) { return ExpertId{layer, e}; }

std::unique_ptr<ExpertCache> make_lru(std::size_t capacity) {
  return std::make_unique<ExpertCache>(capacity, std::make_unique<LruPolicy>());
}

TEST(ExpertCacheTest, RequiresPolicy) {
  EXPECT_THROW(ExpertCache(4, nullptr), std::invalid_argument);
}

TEST(ExpertCacheTest, CapacityForRatio) {
  const auto model = moe::ModelConfig::deepseek();  // 26 * 64 = 1664
  EXPECT_EQ(ExpertCache::capacity_for_ratio(model, 0.25), 416U);
  EXPECT_EQ(ExpertCache::capacity_for_ratio(model, 0.0), 0U);
  EXPECT_EQ(ExpertCache::capacity_for_ratio(model, 1.0), 1664U);
  EXPECT_THROW((void)ExpertCache::capacity_for_ratio(model, 1.5), std::invalid_argument);
}

TEST(ExpertCacheTest, LookupHitMiss) {
  auto cache = make_lru(2);
  EXPECT_FALSE(cache->lookup(id(0, 1)));
  (void)cache->insert(id(0, 1));
  EXPECT_TRUE(cache->lookup(id(0, 1)));
  EXPECT_EQ(cache->stats().hits, 1U);
  EXPECT_EQ(cache->stats().misses, 1U);
  EXPECT_NEAR(cache->stats().hit_rate(), 0.5, 1e-12);
}

TEST(ExpertCacheTest, CapacityNeverExceeded) {
  auto cache = make_lru(3);
  for (std::uint16_t e = 0; e < 20; ++e) {
    const auto r = cache->insert(id(0, e));
    EXPECT_TRUE(r.inserted);
    EXPECT_LE(cache->size(), 3U);
  }
  EXPECT_EQ(cache->stats().evictions, 17U);
}

TEST(ExpertCacheTest, InsertExistingIsIdempotent) {
  auto cache = make_lru(2);
  (void)cache->insert(id(0, 1));
  const auto r = cache->insert(id(0, 1));
  EXPECT_TRUE(r.inserted);
  EXPECT_FALSE(r.evicted.has_value());
  EXPECT_EQ(cache->size(), 1U);
}

TEST(ExpertCacheTest, ZeroCapacityRejectsEverything) {
  auto cache = make_lru(0);
  const auto r = cache->insert(id(0, 1));
  EXPECT_FALSE(r.inserted);
  EXPECT_EQ(cache->stats().rejected_insertions, 1U);
  EXPECT_FALSE(cache->lookup(id(0, 1)));
}

TEST(ExpertCacheTest, PinnedEntriesNeverEvicted) {
  auto cache = make_lru(2);
  cache->insert_pinned(id(0, 1));
  (void)cache->insert(id(0, 2));
  for (std::uint16_t e = 3; e < 10; ++e) (void)cache->insert(id(0, e));
  EXPECT_TRUE(cache->contains(id(0, 1)));
  EXPECT_TRUE(cache->is_pinned(id(0, 1)));

  // Erased, then reinserted unpinned, it is an ordinary entry and ages out.
  EXPECT_TRUE(cache->erase(id(0, 1)));
  EXPECT_FALSE(cache->is_pinned(id(0, 1)));
  EXPECT_TRUE(cache->insert(id(0, 1)).inserted);
  EXPECT_FALSE(cache->is_pinned(id(0, 1)));
  (void)cache->insert(id(0, 10));
  (void)cache->insert(id(0, 11));
  EXPECT_FALSE(cache->contains(id(0, 1)));
}

TEST(ExpertCacheTest, AllPinnedInsertFails) {
  auto cache = make_lru(2);
  cache->insert_pinned(id(0, 1));
  cache->insert_pinned(id(0, 2));
  const auto r = cache->insert(id(0, 3));
  EXPECT_FALSE(r.inserted);
  EXPECT_EQ(cache->stats().rejected_insertions, 1U);
  EXPECT_THROW(cache->insert_pinned(id(0, 4)), std::invalid_argument);
}

TEST(ExpertCacheTest, DoNotEvictProtection) {
  auto cache = make_lru(2);
  (void)cache->insert(id(0, 1));
  (void)cache->insert(id(0, 2));
  // Protect the LRU victim (0,1): eviction must take (0,2) instead.
  const std::vector<ExpertId> protected_ids{id(0, 1)};
  const auto r = cache->insert(id(0, 3), protected_ids);
  EXPECT_TRUE(r.inserted);
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(*r.evicted, id(0, 2));
  EXPECT_TRUE(cache->contains(id(0, 1)));

  // Protection names one expert, not its bit position in every word:
  // protecting (0,1) leaves (0,65), the next-oldest, evictable.
  auto wide = make_lru(3);
  for (const ExpertId e : {id(0, 1), id(0, 65), id(0, 2)}) (void)wide->insert(e);
  EXPECT_EQ(wide->insert(id(0, 3), protected_ids).evicted, std::optional<ExpertId>(id(0, 65)));
}

TEST(ExpertCacheTest, AllProtectedInsertFails) {
  auto cache = make_lru(3);
  cache->insert_pinned(id(0, 1));
  (void)cache->insert(id(0, 2));
  (void)cache->insert(id(1, 70));
  // (0,1) is pinned; the other two are protected for this call.
  const std::vector<ExpertId> protected_ids{id(1, 70), id(0, 2)};
  const auto r = cache->insert(id(3, 3), protected_ids);
  EXPECT_FALSE(r.inserted);
  EXPECT_FALSE(r.evicted.has_value());
  EXPECT_EQ(cache->stats().rejected_insertions, 1U);
  EXPECT_EQ(cache->stats().evictions, 0U);
  EXPECT_EQ(cache->residents(), (std::vector<ExpertId>{id(0, 1), id(0, 2), id(1, 70)}));
}

TEST(ExpertCacheTest, EraseRemovesAndNotifies) {
  auto cache = make_lru(2);
  (void)cache->insert(id(0, 1));
  EXPECT_TRUE(cache->erase(id(0, 1)));
  EXPECT_FALSE(cache->contains(id(0, 1)));
  EXPECT_FALSE(cache->erase(id(0, 1)));
}

TEST(ExpertCacheTest, ResidentsSortedAndComplete) {
  auto cache = make_lru(8);
  // Across a layer boundary and a 64-expert bit-word boundary.
  for (const ExpertId e : {id(1, 2), id(0, 64), id(0, 3), id(1, 0), id(0, 63), id(1, 1)})
    (void)cache->insert(e);
  const std::vector<ExpertId> expected{id(0, 3), id(0, 63), id(0, 64),
                                       id(1, 0), id(1, 1),  id(1, 2)};
  EXPECT_EQ(cache->residents(), expected);
}

TEST(ExpertCacheTest, PeekVictimMatchesPolicyWithoutEvicting) {
  auto cache = make_lru(2);
  (void)cache->insert(id(0, 1));
  (void)cache->insert(id(0, 2));
  const auto victim = cache->peek_victim();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, id(0, 1));  // oldest
  EXPECT_EQ(cache->size(), 2U);
}

TEST(ExpertCacheTest, PeekVictimEmptyWhenAllPinned) {
  auto cache = make_lru(1);
  cache->insert_pinned(id(0, 1));
  EXPECT_FALSE(cache->peek_victim().has_value());
}

TEST(ExpertCacheTest, StatsResetKeepsContents) {
  auto cache = make_lru(2);
  (void)cache->insert(id(0, 1));
  (void)cache->lookup(id(0, 1));
  cache->reset_stats();
  EXPECT_EQ(cache->stats().hits, 0U);
  EXPECT_TRUE(cache->contains(id(0, 1)));
}

TEST(ExpertCacheTest, UpdateScoresRoutesToPolicy) {
  ExpertCache cache(2, std::make_unique<MrsPolicy>());
  const std::vector<float> scores{0.9f, 0.1f};
  cache.update_scores(0, scores, 1);
  EXPECT_GT(cache.policy().priority(id(0, 0)), 0.0);
}

/// Property: under random workloads, invariants hold for every policy.
class CacheInvariantTest : public ::testing::TestWithParam<std::string> {
 protected:
  static std::unique_ptr<CachePolicy> make_policy(const std::string& name) {
    if (name == "LRU") return std::make_unique<LruPolicy>();
    if (name == "LFU") return std::make_unique<LfuPolicy>();
    if (name == "FIFO") return std::make_unique<FifoPolicy>();
    if (name == "Random") return std::make_unique<RandomPolicy>(1);
    return std::make_unique<MrsPolicy>();
  }
};

TEST_P(CacheInvariantTest, SizeBoundedAndStatsConsistent) {
  util::Rng rng(99);
  ExpertCache cache(8, make_policy(GetParam()));
  std::size_t lookups = 0;
  for (int i = 0; i < 4000; ++i) {
    const auto key = id(static_cast<std::uint16_t>(rng.uniform_index(4)),
                        static_cast<std::uint16_t>(rng.uniform_index(16)));
    if (rng.bernoulli(0.1)) {
      const std::vector<float> scores(16, 0.0625f);
      cache.update_scores(key.layer, scores, 4);
      continue;
    }
    ++lookups;
    if (!cache.lookup(key)) (void)cache.insert(key);
    ASSERT_LE(cache.size(), 8U);
  }
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, lookups);
  EXPECT_EQ(cache.size(), cache.residents().size());
  EXPECT_GE(cache.stats().insertions, cache.stats().evictions);
}

INSTANTIATE_TEST_SUITE_P(Policies, CacheInvariantTest,
                         ::testing::Values("LRU", "LFU", "FIFO", "Random", "MRS"));

}  // namespace
}  // namespace hybrimoe::cache
