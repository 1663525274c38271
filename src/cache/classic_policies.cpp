#include "cache/classic_policies.hpp"

#include <limits>

#include "util/assert.hpp"

namespace hybrimoe::cache {

namespace {

/// Generic "smallest key wins" scan; `key(id)` must be totally ordered.
template <typename KeyFn>
moe::ExpertId min_by(std::span<const moe::ExpertId> candidates, KeyFn key) {
  HYBRIMOE_REQUIRE(!candidates.empty(), "choose_victim with no candidates");
  moe::ExpertId best = candidates.front();
  auto best_key = key(best);
  for (const auto& id : candidates.subspan(1)) {
    const auto k = key(id);
    if (k < best_key) {
      best_key = k;
      best = id;
    }
  }
  return best;
}

}  // namespace

moe::ExpertId LruPolicy::choose_victim(std::span<const moe::ExpertId> candidates) {
  return min_by(candidates, [&](moe::ExpertId id) { return stamp_.get(id); });
}

double LruPolicy::priority(moe::ExpertId id) const {
  return static_cast<double>(stamp_.get(id));
}

moe::ExpertId LfuPolicy::choose_victim(std::span<const moe::ExpertId> candidates) {
  // Pair (count, recency): least frequent first, oldest first on ties.
  return min_by(candidates, [&](moe::ExpertId id) {
    return std::pair<std::uint64_t, std::uint64_t>{count_.get(id), stamp_.get(id)};
  });
}

double LfuPolicy::priority(moe::ExpertId id) const {
  return static_cast<double>(count_.get(id));
}

moe::ExpertId FifoPolicy::choose_victim(std::span<const moe::ExpertId> candidates) {
  return min_by(candidates, [&](moe::ExpertId id) { return order_.get(id); });
}

double FifoPolicy::priority(moe::ExpertId id) const {
  return static_cast<double>(order_.get(id));
}

moe::ExpertId RandomPolicy::choose_victim(std::span<const moe::ExpertId> candidates) {
  HYBRIMOE_REQUIRE(!candidates.empty(), "choose_victim with no candidates");
  return candidates[static_cast<std::size_t>(rng_.uniform_index(candidates.size()))];
}

BeladyPolicy::BeladyPolicy(std::vector<moe::ExpertId> reference_string)
    : next_(reference_string.size()) {
  // Backwards, so each id's cursor ends at its first position.
  for (std::size_t pos = reference_string.size(); pos-- > 0;) {
    std::size_t& cursor = cursor_.at(reference_string[pos]);
    next_[pos] = cursor;
    cursor = pos + 1;
  }
}

void BeladyPolicy::on_reference(moe::ExpertId id) {
  const std::size_t cursor = cursor_.get(id);
  HYBRIMOE_REQUIRE(cursor == clock_ + 1,
                   "Belady reference stream diverged from the provided string");
  cursor_.at(id) = next_[clock_];
  ++clock_;
}

std::size_t BeladyPolicy::next_use(moe::ExpertId id) const {
  const std::size_t cursor = cursor_.get(id);
  return cursor == 0 ? std::numeric_limits<std::size_t>::max() : cursor - 1;
}

moe::ExpertId BeladyPolicy::choose_victim(std::span<const moe::ExpertId> candidates) {
  HYBRIMOE_REQUIRE(!candidates.empty(), "choose_victim with no candidates");
  moe::ExpertId best = candidates.front();
  std::size_t best_next = next_use(best);
  for (const auto& id : candidates.subspan(1)) {
    const std::size_t n = next_use(id);
    if (n > best_next) {  // farthest next use (or never used again) evicted
      best_next = n;
      best = id;
    }
  }
  return best;
}

}  // namespace hybrimoe::cache
