#pragma once

/// \file metrics.hpp
/// Per-stage measurements: TTFT for prefill, TBT for decode (§VI-A.4), plus
/// the resource-utilisation and cache statistics the analysis sections use.
/// Request-level serving measurements (per-request TTFT/TBT/E2E, tails,
/// throughput/goodput) live in serve_metrics.hpp; a ServeMetrics embeds one
/// StageMetrics as its aggregate step counters.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/expert_cache.hpp"
#include "sched/plan.hpp"
#include "util/assert.hpp"

namespace hybrimoe::runtime {

struct StageMetrics {
  sched::Stage stage = sched::Stage::Prefill;
  std::size_t tokens = 0;  ///< prompt tokens (prefill) or generated tokens (decode)
  double total_latency = 0.0;
  std::vector<double> per_forward;  ///< latency per forward pass

  double attention_time = 0.0;
  double shared_time = 0.0;
  double moe_time = 0.0;  ///< sum of routed-expert plan makespans

  double cpu_busy = 0.0;
  double gpu_busy = 0.0;
  double pcie_busy = 0.0;

  cache::CacheStats cache;        ///< lookups during this stage only
  std::size_t transfers = 0;      ///< on-demand expert uploads
  std::size_t prefetches = 0;     ///< speculative uploads
  std::size_t maintenance = 0;    ///< score-driven cache admissions
  /// Cumulative expert uploads (on-demand + prefetch + maintenance) per
  /// target accelerator — the conservation witness scenario invariants
  /// check: no entry of a lost device may grow while it is lost. Sized on
  /// first run_step; empty until then.
  std::vector<std::size_t> device_transfers;

  /// Wall-clock latency measured by the threaded execution backend,
  /// re-expressed in modeled seconds (wall / time_scale) so it is directly
  /// comparable to total_latency. Stays 0 in simulated mode; the
  /// modeled-vs-measured gap is the validation the §V real-system claim
  /// rests on (bench_exec_validation).
  double measured_latency = 0.0;
  /// Chained FNV-1a digest of every layer output produced by the execution
  /// backend (0 when no executor is attached). Bitwise-equal digests across
  /// execution modes, fresh executors and frameworks certify that scheduling
  /// only moves computation — it never changes the result.
  std::uint64_t exec_digest = 0;

  /// Time To First Token — the prefill metric (Fig. 7).
  [[nodiscard]] double ttft() const {
    HYBRIMOE_REQUIRE(stage == sched::Stage::Prefill, "ttft is a prefill metric");
    return total_latency;
  }
  /// Mean Time Between Tokens — the decode metric (Fig. 8).
  [[nodiscard]] double tbt_mean() const {
    HYBRIMOE_REQUIRE(stage == sched::Stage::Decode, "tbt is a decode metric");
    HYBRIMOE_REQUIRE(!per_forward.empty(), "no decode steps recorded");
    return total_latency / static_cast<double>(per_forward.size());
  }
  [[nodiscard]] double tokens_per_second() const {
    return total_latency > 0.0 ? static_cast<double>(tokens) / total_latency : 0.0;
  }
  /// Fraction of total latency each resource was busy.
  [[nodiscard]] double cpu_utilization() const {
    return total_latency > 0.0 ? cpu_busy / total_latency : 0.0;
  }
  [[nodiscard]] double gpu_utilization() const {
    return total_latency > 0.0 ? gpu_busy / total_latency : 0.0;
  }
  [[nodiscard]] double pcie_utilization() const {
    return total_latency > 0.0 ? pcie_busy / total_latency : 0.0;
  }
};

}  // namespace hybrimoe::runtime
