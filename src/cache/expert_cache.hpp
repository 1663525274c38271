#pragma once

/// \file expert_cache.hpp
/// The accelerator expert cache: a bounded set of (layer, expert) entries
/// managed by a pluggable replacement policy. One ExpertCache models one
/// device's residency; a multi-accelerator engine owns one cache per device
/// (with MRS score tables shared across them — see MrsPolicy::share_table)
/// and splits the capacity budget by the topology's cache shares. Capacity
/// is counted in routed experts — the paper's "GPU expert cache ratio" of r
/// means total capacity = r * num_layers * num_routed_experts. Shared
/// experts are permanent GPU residents outside this budget; *pinned* entries
/// (kTransformers-style static placement) live inside the budget but are
/// never evicted.
///
/// Residency and pinnedness are ExpertBitsets (expert_table.hpp): per-layer
/// bit words grown on first touch, plus a size counter. A residency probe is
/// one word test, and the eviction candidates come from walking layers, then
/// set bits, which yields them in ascending ExpertId order without a sort.
/// That order is part of the contract: every deterministic policy breaks a
/// tie on its key toward the first candidate, and RandomPolicy indexes the
/// list, so the candidate order decides the victim.

#include <memory>
#include <optional>
#include <vector>

#include "cache/expert_table.hpp"
#include "cache/policy.hpp"
#include "moe/model_config.hpp"

namespace hybrimoe::cache {

/// Hit/miss counters; hit_rate() is the paper's Fig. 9 metric.
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t insertions = 0;
  std::size_t evictions = 0;
  std::size_t rejected_insertions = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::size_t total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
  void reset() noexcept { *this = CacheStats{}; }
};

/// Outcome of an insertion attempt.
struct InsertResult {
  bool inserted = false;
  std::optional<moe::ExpertId> evicted;
};

class ExpertCache {
 public:
  /// `capacity` in routed-expert slots; `policy` must be non-null.
  ExpertCache(std::size_t capacity, std::unique_ptr<CachePolicy> policy);

  /// Capacity from the paper's cache ratio for a given model.
  [[nodiscard]] static std::size_t capacity_for_ratio(const moe::ModelConfig& model,
                                                      double ratio);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool full() const noexcept { return size_ >= capacity_; }
  [[nodiscard]] bool contains(moe::ExpertId id) const noexcept {
    return resident_.contains(id);
  }
  [[nodiscard]] bool is_pinned(moe::ExpertId id) const noexcept {
    return pinned_.contains(id);
  }

  [[nodiscard]] CachePolicy& policy() noexcept { return *policy_; }
  [[nodiscard]] const CachePolicy& policy() const noexcept { return *policy_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_.reset(); }

  /// Record a lookup for an expert the current layer activated. Returns true
  /// on hit. Updates policy recency/frequency state and the statistics.
  bool lookup(moe::ExpertId id);

  /// Record a miss without probing residency — the multi-device engine
  /// resolves residency across per-device caches first, then charges the
  /// miss to exactly one cache. Equivalent to a lookup() that misses.
  void record_miss(moe::ExpertId id);

  /// Non-recording residency probe (used by schedulers building demands
  /// after lookups were already counted).
  [[nodiscard]] bool probe(moe::ExpertId id) const noexcept {
    return resident_.contains(id);
  }

  /// Make `id` resident, evicting a policy-chosen victim if full. Entries in
  /// `do_not_evict` are treated as pinned for this call (e.g. experts the
  /// current layer still needs). Fails — without eviction — when every
  /// resident entry is protected.
  InsertResult insert(moe::ExpertId id, std::span<const moe::ExpertId> do_not_evict = {});

  /// Insert and pin (static placement). Throws if the cache is full of
  /// pinned entries.
  void insert_pinned(moe::ExpertId id);

  /// Remove a specific entry (used by tests and invalidation paths).
  bool erase(moe::ExpertId id);

  /// Forward one layer's routing scores to the policy (Eq. 3 feed).
  void update_scores(std::uint16_t layer, std::span<const float> scores,
                     std::size_t top_k);

  /// Snapshot of resident ids in ascending ExpertId order (layer, then
  /// expert).
  [[nodiscard]] std::vector<moe::ExpertId> residents() const;
  /// The resident set itself, for walks that need no copy.
  [[nodiscard]] const ExpertBitset& resident_set() const noexcept { return resident_; }

  /// The entry the policy would evict next (nullopt when nothing evictable):
  /// the victim of the next insert into a full cache with nothing protected.
  [[nodiscard]] std::optional<moe::ExpertId> peek_victim();

 private:
  /// Resident, unpinned entries not in `extra_protected`, ascending.
  [[nodiscard]] std::vector<moe::ExpertId> evictable(
      std::span<const moe::ExpertId> extra_protected) const;

  std::size_t capacity_;
  std::unique_ptr<CachePolicy> policy_;
  ExpertBitset resident_;
  ExpertBitset pinned_;  ///< always a subset of resident_
  std::size_t size_ = 0;  ///< members of resident_
  CacheStats stats_;
};

}  // namespace hybrimoe::cache
