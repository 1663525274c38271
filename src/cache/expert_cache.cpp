#include "cache/expert_cache.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace hybrimoe::cache {

ExpertCache::ExpertCache(std::size_t capacity, std::unique_ptr<CachePolicy> policy)
    : capacity_(capacity), policy_(std::move(policy)) {
  HYBRIMOE_REQUIRE(policy_ != nullptr, "ExpertCache requires a policy");
}

std::size_t ExpertCache::capacity_for_ratio(const moe::ModelConfig& model, double ratio) {
  HYBRIMOE_REQUIRE(ratio >= 0.0 && ratio <= 1.0, "cache ratio must be in [0,1]");
  return static_cast<std::size_t>(
      std::llround(ratio * static_cast<double>(model.total_routed_experts())));
}

bool ExpertCache::lookup(moe::ExpertId id) {
  policy_->on_reference(id);
  const bool hit = resident_.contains(id);
  if (hit) {
    ++stats_.hits;
    policy_->on_hit(id);
  } else {
    ++stats_.misses;
  }
  return hit;
}

void ExpertCache::record_miss(moe::ExpertId id) {
  policy_->on_reference(id);
  ++stats_.misses;
}

std::vector<moe::ExpertId> ExpertCache::evictable(
    std::span<const moe::ExpertId> extra_protected) const {
  std::vector<moe::ExpertId> out;
  out.reserve(size_);
  resident_.for_each_word([&](std::size_t layer, std::size_t w, std::uint64_t bits) {
    bits &= ~pinned_.word(layer, w);
    if (bits == 0) return;
    for (const moe::ExpertId p : extra_protected)
      if (p.layer == layer && ExpertBitset::word_index(p) == w) bits &= ~ExpertBitset::mask(p);
    ExpertBitset::for_each_bit(layer, w, bits,
                               [&](moe::ExpertId id) { out.push_back(id); });
  });
  return out;
}

InsertResult ExpertCache::insert(moe::ExpertId id,
                                 std::span<const moe::ExpertId> do_not_evict) {
  if (capacity_ == 0) {
    ++stats_.rejected_insertions;
    return {};
  }
  if (resident_.contains(id)) return {.inserted = true, .evicted = std::nullopt};

  InsertResult result;
  if (size_ >= capacity_) {
    const auto candidates = evictable(do_not_evict);
    if (candidates.empty()) {
      ++stats_.rejected_insertions;
      return {};
    }
    const moe::ExpertId victim = policy_->choose_victim(candidates);
    const bool was_resident = resident_.erase(victim);
    HYBRIMOE_ASSERT(was_resident, "policy chose a non-resident victim");
    --size_;
    policy_->on_evict(victim);
    ++stats_.evictions;
    result.evicted = victim;
  }
  resident_.insert(id);
  ++size_;
  policy_->on_insert(id);
  ++stats_.insertions;
  result.inserted = true;
  return result;
}

void ExpertCache::insert_pinned(moe::ExpertId id) {
  const InsertResult r = insert(id);
  HYBRIMOE_REQUIRE(r.inserted, "insert_pinned failed: cache exhausted by pinned entries");
  pinned_.insert(id);
}

bool ExpertCache::erase(moe::ExpertId id) {
  if (!resident_.erase(id)) return false;
  --size_;
  pinned_.erase(id);
  policy_->on_evict(id);
  return true;
}

void ExpertCache::update_scores(std::uint16_t layer, std::span<const float> scores,
                                std::size_t top_k) {
  policy_->on_scores(layer, scores, top_k);
}

std::vector<moe::ExpertId> ExpertCache::residents() const {
  std::vector<moe::ExpertId> out;
  out.reserve(size_);
  resident_.for_each_word([&](std::size_t layer, std::size_t w, std::uint64_t bits) {
    ExpertBitset::for_each_bit(layer, w, bits,
                               [&](moe::ExpertId id) { out.push_back(id); });
  });
  return out;
}

std::optional<moe::ExpertId> ExpertCache::peek_victim() {
  const auto candidates = evictable({});
  if (candidates.empty()) return std::nullopt;
  return policy_->choose_victim(candidates);
}

}  // namespace hybrimoe::cache
