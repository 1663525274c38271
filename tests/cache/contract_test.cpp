// ExpertCache contracts the figure goldens do not reach: sparse ids far apart,
// and peek_victim naming the next victim under every policy.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/classic_policies.hpp"
#include "cache/expert_cache.hpp"
#include "cache/mrs_policy.hpp"
#include "util/rng.hpp"

namespace hybrimoe::cache {
namespace {

using moe::ExpertId;

ExpertId id(std::uint16_t layer, std::uint16_t e) { return ExpertId{layer, e}; }

TEST(CacheContractTest, SparseIdsFarApartGrowOnFirstTouch) {
  const ExpertId far = id(200, 4000);
  ExpertCache cache(3, std::make_unique<MrsPolicy>());
  EXPECT_FALSE(cache.probe(far));
  EXPECT_FALSE(cache.probe(id(65535, 65535)));
  EXPECT_FALSE(cache.erase(far));

  (void)cache.insert(far);
  (void)cache.insert(id(0, 0));
  (void)cache.insert(id(200, 63));
  EXPECT_TRUE(cache.lookup(far));
  EXPECT_FALSE(cache.lookup(id(199, 4000)));
  EXPECT_FALSE(cache.probe(id(200, 4001)));
  EXPECT_EQ(cache.residents(), (std::vector<ExpertId>{id(0, 0), id(200, 63), far}));

  // Only (200, 4000) scores: it outranks the two never-scored entries, and
  // the tie between those goes to the lower id.
  std::vector<float> scores(4001, 0.0f);
  scores[4000] = 1.0f;
  cache.update_scores(200, scores, 1);
  EXPECT_GT(cache.policy().priority(far), 0.0);
  EXPECT_EQ(cache.peek_victim(), std::optional<ExpertId>(id(0, 0)));
  const InsertResult r = cache.insert(id(150, 1000));
  EXPECT_EQ(r.evicted, std::optional<ExpertId>(id(0, 0)));
  EXPECT_TRUE(cache.contains(far));
}

/// One step of a seeded cache workload.
struct Op {
  enum Kind { kAccess, kErase, kScores } kind;
  ExpertId id;
  std::vector<float> scores;  // kScores: one per expert of id.layer
};

constexpr std::uint16_t kLayers = 3;
constexpr std::uint16_t kExperts = 70;  // two bit words per layer
constexpr std::size_t kCapacity = 12;

std::vector<Op> seeded_ops(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  std::vector<Op> ops;
  for (std::size_t i = 0; i < n; ++i) {
    const ExpertId key = id(static_cast<std::uint16_t>(rng.uniform_index(kLayers)),
                            static_cast<std::uint16_t>(rng.uniform_index(kExperts)));
    const double u = rng.uniform();
    if (u < 0.1) {
      ops.push_back({Op::kErase, key, {}});
    } else if (u < 0.25) {
      std::vector<float> scores(kExperts);
      for (float& s : scores) s = static_cast<float>(rng.uniform());
      ops.push_back({Op::kScores, key, std::move(scores)});
    } else {
      ops.push_back({Op::kAccess, key, {}});
    }
  }
  return ops;
}

std::vector<ExpertId> reference_string(const std::vector<Op>& ops) {
  std::vector<ExpertId> refs;
  for (const Op& op : ops)
    if (op.kind == Op::kAccess) refs.push_back(op.id);
  return refs;
}

std::unique_ptr<CachePolicy> make_policy(const std::string& name,
                                         const std::vector<Op>& ops) {
  if (name == "LRU") return std::make_unique<LruPolicy>();
  if (name == "LFU") return std::make_unique<LfuPolicy>();
  if (name == "FIFO") return std::make_unique<FifoPolicy>();
  if (name == "Random") return std::make_unique<RandomPolicy>(5);
  if (name == "Belady") return std::make_unique<BeladyPolicy>(reference_string(ops));
  return std::make_unique<MrsPolicy>();
}

/// Applies one op; an access that misses inserts. Returns the insert's result
/// for an access that missed a full cache.
std::optional<InsertResult> apply(ExpertCache& cache, const Op& op) {
  switch (op.kind) {
    case Op::kErase:
      (void)cache.erase(op.id);
      return std::nullopt;
    case Op::kScores:
      cache.update_scores(op.id.layer, op.scores, 4);
      return std::nullopt;
    case Op::kAccess:
      break;
  }
  if (cache.lookup(op.id)) return std::nullopt;
  const bool was_full = cache.full();
  const InsertResult r = cache.insert(op.id);
  return was_full ? std::optional<InsertResult>(r) : std::nullopt;
}

class PeekVictimTest : public ::testing::TestWithParam<std::string> {};

// peek_victim may advance policy state (RandomPolicy draws), so each check
// replays the prefix into a second cache, peeks there, and compares with the
// victim the first cache's insert evicted.
TEST_P(PeekVictimTest, NamesTheNextFullInsertsVictim) {
  const std::vector<Op> ops = seeded_ops(20250408, 400);
  ExpertCache cache(kCapacity, make_policy(GetParam(), ops));
  std::size_t checked = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const bool misses = ops[i].kind == Op::kAccess && !cache.probe(ops[i].id);
    std::optional<ExpertId> peeked;
    if (misses && cache.full()) {
      ExpertCache replay(kCapacity, make_policy(GetParam(), ops));
      for (std::size_t j = 0; j < i; ++j) (void)apply(replay, ops[j]);
      ASSERT_EQ(replay.residents(), cache.residents()) << "op " << i;
      ASSERT_FALSE(replay.lookup(ops[i].id));
      peeked = replay.peek_victim();
    }
    const std::optional<InsertResult> r = apply(cache, ops[i]);
    if (!r) continue;
    ASSERT_TRUE(r->inserted) << "op " << i;
    ASSERT_TRUE(r->evicted.has_value()) << "op " << i;
    EXPECT_EQ(peeked, r->evicted) << "op " << i;
    ++checked;
  }
  EXPECT_GT(checked, 100U);
}

INSTANTIATE_TEST_SUITE_P(Policies, PeekVictimTest,
                         ::testing::Values("LRU", "LFU", "FIFO", "Random", "MRS",
                                           "Belady"));

}  // namespace
}  // namespace hybrimoe::cache
