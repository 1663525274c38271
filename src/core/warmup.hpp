#pragma once

/// \file warmup.hpp
/// The warmup phase of §IV-A: before serving, HybriMoE (i) measures the
/// machine — CPU/GPU speeds, transfer latency (hw/calibration.hpp) — and
/// (ii) observes expert activation statistics (the experiment harness counts
/// them over an independent warmup trace). The frequencies seed the cache
/// and, for the kTransformers baseline, the static pinning chosen here.
/// replay_hit_rate is the cache-only replay that measures a policy against
/// such a trace (the paper's Fig. 9 methodology).

#include <cstddef>
#include <vector>

#include "cache/expert_cache.hpp"
#include "moe/expert_id.hpp"
#include "moe/model_config.hpp"
#include "workload/trace.hpp"

namespace hybrimoe::core {

/// The `count` (layer, expert) pairs with the highest warmup frequency —
/// the kTransformers static placement, with shared experts handled
/// separately by the engine. Ties break toward lower ids (deterministic).
[[nodiscard]] std::vector<moe::ExpertId> hottest_experts(
    const std::vector<std::vector<double>>& frequencies, std::size_t count);

/// Replay `trace` through `cache` as Fig. 9 measures it: every activated
/// expert is looked up, a miss is loaded and admitted, and the cache's policy
/// picks the evictions. With `feed_scores`, each layer's router scores reach
/// the cache before its lookups (score-aware policies such as MRS). No
/// scheduling takes part. Returns the cache's cumulative hit rate.
[[nodiscard]] double replay_hit_rate(const workload::DecodeTrace& trace,
                                     const moe::ModelConfig& model, cache::ExpertCache& cache,
                                     bool feed_scores);

}  // namespace hybrimoe::core
