#pragma once

/// \file policy.hpp
/// Replacement-policy interface for the GPU expert cache, plus the classic
/// policies the paper compares against. The paper's own policy — MRS,
/// Minus Recent Score (§IV-D) — lives in mrs_policy.hpp.
///
/// The cache notifies its policy of every reference, insertion and eviction;
/// score-aware policies additionally receive the full routing-score vector of
/// each layer each iteration (Eq. 3's `s`).

#include <cstdint>
#include <span>
#include <string>

#include "moe/expert_id.hpp"

namespace hybrimoe::cache {

/// Replacement policy. Implementations must be deterministic given the same
/// event sequence (RandomPolicy is deterministic via its seeded Rng).
/// Benchmark-pinned surface: bench/e2e wraps a CachePolicy, so this virtual
/// interface stays.
class CachePolicy {
 public:
  virtual ~CachePolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Every cache lookup (hit or miss) in reference order. Default: no-op.
  /// Belady uses this to advance its oracle clock.
  virtual void on_reference(moe::ExpertId /*id*/) {}

  /// A lookup hit a resident entry.
  virtual void on_hit(moe::ExpertId id) = 0;

  /// `id` became resident (on-demand transfer, prefetch or seeding).
  virtual void on_insert(moe::ExpertId id) = 0;

  /// `id` was evicted.
  virtual void on_evict(moe::ExpertId id) = 0;

  /// Routing scores of `layer` for the current iteration: `scores[e]` is the
  /// full-softmax score of expert e; `top_k` is the model's activation count.
  /// Only score-aware policies care. Default: no-op.
  virtual void on_scores(std::uint16_t /*layer*/, std::span<const float> /*scores*/,
                         std::size_t /*top_k*/) {}

  /// Pick the entry to evict among `candidates` (non-empty, all resident and
  /// unpinned). May mutate internal bookkeeping.
  [[nodiscard]] virtual moe::ExpertId choose_victim(
      std::span<const moe::ExpertId> candidates) = 0;

  /// Retention priority of an entry — larger means "keep". Only meaningful
  /// relative to the same policy instance; the prefetcher uses it for
  /// admission decisions. Default 0.
  [[nodiscard]] virtual double priority(moe::ExpertId /*id*/) const { return 0.0; }
};

}  // namespace hybrimoe::cache
