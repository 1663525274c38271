#pragma once

/// \file warmup.hpp
/// The warmup phase of §IV-A: before serving, HybriMoE (i) measures the
/// machine — CPU/GPU speeds, transfer latency (hw/calibration.hpp) — and
/// (ii) observes expert activation statistics (the experiment harness counts
/// them over an independent warmup trace). The frequencies seed the cache
/// and, for the kTransformers baseline, the static pinning chosen here.

#include <cstddef>
#include <vector>

#include "moe/expert_id.hpp"

namespace hybrimoe::core {

/// The `count` (layer, expert) pairs with the highest warmup frequency —
/// the kTransformers static placement, with shared experts handled
/// separately by the engine. Ties break toward lower ids (deterministic).
[[nodiscard]] std::vector<moe::ExpertId> hottest_experts(
    const std::vector<std::vector<double>>& frequencies, std::size_t count);

}  // namespace hybrimoe::core
