#pragma once

/// \file classic_policies.hpp
/// The textbook replacement policies the paper's evaluation compares MRS
/// against (LRU in Fig. 9, LFU as the kTransformers default in Table I),
/// plus FIFO / Random controls and a Belady oracle upper bound used by the
/// ablation benches.
///
/// Per-expert state lives in flat ExpertTables (expert_table.hpp); an entry
/// never written reads 0. Every deterministic choose_victim returns the
/// candidate with the minimum key, a tie going to the first candidate in the
/// order given (ascending ExpertId, from ExpertCache).

#include <cstdint>
#include <vector>

#include "cache/expert_table.hpp"
#include "cache/policy.hpp"
#include "util/rng.hpp"

namespace hybrimoe::cache {

/// Least Recently Used: evicts the resident entry with the oldest access.
class LruPolicy final : public CachePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "LRU"; }
  void on_hit(moe::ExpertId id) override { stamp_.at(id) = ++clock_; }
  void on_insert(moe::ExpertId id) override { stamp_.at(id) = ++clock_; }
  void on_evict(moe::ExpertId id) override { stamp_.clear(id); }
  [[nodiscard]] moe::ExpertId choose_victim(
      std::span<const moe::ExpertId> candidates) override;
  [[nodiscard]] double priority(moe::ExpertId id) const override;

 private:
  ExpertTable<std::uint64_t> stamp_;
  std::uint64_t clock_ = 0;
};

/// Least Frequently Used with LRU tie-breaking (the kTransformers default).
class LfuPolicy final : public CachePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "LFU"; }
  void on_hit(moe::ExpertId id) override {
    ++count_.at(id);
    stamp_.at(id) = ++clock_;
  }
  void on_insert(moe::ExpertId id) override {
    ++count_.at(id);  // frequency persists across residency periods
    stamp_.at(id) = ++clock_;
  }
  void on_evict(moe::ExpertId id) override { stamp_.clear(id); }
  [[nodiscard]] moe::ExpertId choose_victim(
      std::span<const moe::ExpertId> candidates) override;
  [[nodiscard]] double priority(moe::ExpertId id) const override;

 private:
  ExpertTable<std::uint64_t> count_;
  ExpertTable<std::uint64_t> stamp_;
  std::uint64_t clock_ = 0;
};

/// First-In First-Out: insertion order only.
class FifoPolicy final : public CachePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "FIFO"; }
  void on_hit(moe::ExpertId) override {}
  void on_insert(moe::ExpertId id) override { order_.at(id) = ++clock_; }
  void on_evict(moe::ExpertId id) override { order_.clear(id); }
  [[nodiscard]] moe::ExpertId choose_victim(
      std::span<const moe::ExpertId> candidates) override;
  [[nodiscard]] double priority(moe::ExpertId id) const override;

 private:
  ExpertTable<std::uint64_t> order_;
  std::uint64_t clock_ = 0;
};

/// Uniform-random victim (seeded, deterministic control baseline).
class RandomPolicy final : public CachePolicy {
 public:
  explicit RandomPolicy(std::uint64_t seed = 7) : rng_(seed) {}
  [[nodiscard]] std::string name() const override { return "Random"; }
  void on_hit(moe::ExpertId) override {}
  void on_insert(moe::ExpertId) override {}
  void on_evict(moe::ExpertId) override {}
  [[nodiscard]] moe::ExpertId choose_victim(
      std::span<const moe::ExpertId> candidates) override;

 private:
  util::Rng rng_;
};

/// Belady's optimal offline policy: evicts the resident entry whose next
/// reference is farthest in the future. Requires the full reference string up
/// front; on_reference advances the oracle clock. Used as the hit-rate upper
/// bound in the cache ablation bench.
///
/// The reference string is kept as one vector that links each position to the
/// next position of the same id, plus a cursor per id: the id's next use.
class BeladyPolicy final : public CachePolicy {
 public:
  explicit BeladyPolicy(std::vector<moe::ExpertId> reference_string);
  [[nodiscard]] std::string name() const override { return "Belady"; }
  void on_reference(moe::ExpertId id) override;
  void on_hit(moe::ExpertId) override {}
  void on_insert(moe::ExpertId) override {}
  void on_evict(moe::ExpertId) override {}
  [[nodiscard]] moe::ExpertId choose_victim(
      std::span<const moe::ExpertId> candidates) override;

 private:
  /// Next position of `id` at or after the current clock (SIZE_MAX: never).
  [[nodiscard]] std::size_t next_use(moe::ExpertId id) const;

  /// next_[pos]: the next position of the id referenced at `pos`, plus one
  /// (0: none).
  std::vector<std::size_t> next_;
  /// Per id: its next position plus one (0: never referenced again).
  ExpertTable<std::size_t> cursor_;
  std::size_t clock_ = 0;
};

}  // namespace hybrimoe::cache
