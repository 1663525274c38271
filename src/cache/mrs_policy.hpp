#pragma once

/// \file mrs_policy.hpp
/// The paper's score-aware replacement policy (§IV-D): Minus Recent Score.
///
/// Every iteration, each layer's routing produces a full-softmax score vector
/// `s`. MRS keeps an exponentially averaged priority per (layer, expert):
///
///     S  =  alpha * TopP(s) + (1 - alpha) * S                       (Eq. 3)
///
/// where TopP zeroes every score outside the iteration's top `p` — the paper
/// observes (Fig. 3b) that reuse probability is flat below roughly the top
/// 2K scores, so only those carry signal; by default p = 2 * top_k.
/// Eviction removes the resident entry with the smallest S.

#include <cstdint>
#include <memory>

#include "cache/expert_table.hpp"
#include "cache/policy.hpp"

namespace hybrimoe::cache {

class MrsPolicy final : public CachePolicy {
 public:
  /// Tunable parameters of Eq. 3.
  struct Params {
    double alpha = 0.3;          ///< EMA coefficient of Eq. 3
    std::size_t top_p_factor = 2; ///< p = top_p_factor * top_k
    /// Throws std::invalid_argument on out-of-range parameters.
    void validate() const;
  };

  MrsPolicy();  // default parameters
  explicit MrsPolicy(Params params);

  /// Create a policy instance backed by this instance's score table. The
  /// per-device expert caches of one engine each own a policy but share one
  /// Eq. 3 table — routing scores are device-independent, so a single score
  /// feed (to the primary cache) keeps every device's eviction ranking
  /// consistent. Sharing across engines is not supported.
  [[nodiscard]] std::unique_ptr<MrsPolicy> share_table() const;

  [[nodiscard]] std::string name() const override { return "MRS"; }
  [[nodiscard]] const Params& params() const noexcept { return params_; }

  void on_hit(moe::ExpertId) override {}
  void on_insert(moe::ExpertId) override {}
  void on_evict(moe::ExpertId) override {}

  /// Apply Eq. 3 for one layer's score vector.
  void on_scores(std::uint16_t layer, std::span<const float> scores,
                 std::size_t top_k) override;

  [[nodiscard]] moe::ExpertId choose_victim(
      std::span<const moe::ExpertId> candidates) override;

  /// Current S of an entry (0 when never scored).
  [[nodiscard]] double score(moe::ExpertId id) const;
  [[nodiscard]] double priority(moe::ExpertId id) const override { return score(id); }

 private:
  /// S per (layer, expert); a never-scored entry reads 0.
  using ScoreTable = ExpertTable<double>;
  MrsPolicy(Params params, std::shared_ptr<ScoreTable> table);

  Params params_;
  /// Shared across per-device instances created via share_table().
  std::shared_ptr<ScoreTable> scores_;
};

}  // namespace hybrimoe::cache
