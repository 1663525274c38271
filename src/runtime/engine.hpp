#pragma once

/// \file engine.hpp
/// The offloading inference engine: walks a routing trace layer by layer,
/// charges dense work (attention, shared experts) to the accelerators, asks
/// its scheduler for a routed-expert plan over the cost model's device
/// topology, and spends idle link time on prefetching and score-driven cache
/// maintenance (each upload routed to the least-busy link). Every framework
/// in the evaluation is an OffloadEngine with different components, so
/// end-to-end comparisons isolate policy choices.

#include <memory>
#include <string>

#include "cache/expert_cache.hpp"
#include "core/prefetcher.hpp"
#include "exec/executor.hpp"
#include "hw/cost_model.hpp"
#include "runtime/metrics.hpp"
#include "sched/schedulers.hpp"
#include "workload/trace.hpp"

namespace hybrimoe::runtime {

/// Everything that differs between frameworks.
struct EngineComponents {
  std::string name;
  std::unique_ptr<sched::LayerScheduler> scheduler;  ///< required
  /// Expert caches, exactly one per accelerator of the engine's cost-model
  /// topology, in topology order (entries may be 0-capacity). make_engine
  /// splits the capacity budget by the topology's cache shares and shares
  /// MRS score tables across devices.
  std::vector<std::unique_ptr<cache::ExpertCache>> caches;
  std::unique_ptr<core::Prefetcher> prefetcher;      ///< optional

  /// On-demand transfers and prefetches become cache residents.
  bool dynamic_cache_inserts = true;
  /// Feed per-layer routing scores to the cache policy (MRS needs this).
  bool update_policy_scores = true;
  /// Score-driven cache maintenance: spend leftover PCIe idle time uploading
  /// missed experts whose retention priority beats the eviction victim's
  /// (the dynamic half of §IV-D, active across iterations).
  bool cache_maintenance = false;
  /// Fixed per-layer framework dispatch overhead. The paper's §V moves task
  /// allocation out of Python into the C++ kernels precisely because this
  /// term is significant in Python-orchestrated baselines.
  double per_layer_overhead = 0.0;

  /// Which backend executes the scheduler's plans. Simulated charges the
  /// plan's modeled times only (the default, and the only mode that needs
  /// no executor); Threaded additionally lowers every plan onto real
  /// threads via `executor`, paced to the scaled modeled durations, and
  /// records wall-clock measurements in StageMetrics::measured_latency;
  /// Performance runs the identical lowering unpaced, so measured_latency
  /// is real kernel/copy wall time (digests match Threaded bit-for-bit).
  exec::ExecutionMode execution_mode = exec::ExecutionMode::Simulated;
  /// Execution backend. Required for Threaded/Performance modes; optional
  /// in Simulated mode, where — if present — it runs the single-threaded
  /// reference path so all modes produce comparable layer-output digests.
  /// May be shared across engines that run sequentially (see
  /// exec::HybridExecutor thread-safety notes: one engine step at a time).
  std::shared_ptr<exec::HybridExecutor> executor;
};

/// The per-layer offloading loop. Not internally synchronized: one engine
/// serves one logical stream of steps from one thread at a time (in Threaded
/// mode that calling thread *is* the GPU lane of the execution backend).
class OffloadEngine {
 public:
  /// \brief Assemble an engine from its policy components against a cost
  /// model (which must outlive the engine). Throws std::invalid_argument on
  /// missing required components (scheduler, one cache per accelerator,
  /// name, or — in Threaded mode — the executor).
  OffloadEngine(EngineComponents components, const hw::CostModel& costs);

  /// \brief Framework name (stable for the engine's lifetime).
  [[nodiscard]] const std::string& name() const noexcept { return components_.name; }
  /// \brief Number of accelerator devices (== the cost model's topology).
  [[nodiscard]] std::size_t num_devices() const noexcept {
    return components_.caches.size();
  }
  /// \brief Expert cache of accelerator `accel` (topology index; 0 is the
  /// primary device). Engine-thread only.
  [[nodiscard]] cache::ExpertCache& device_cache(std::size_t accel) noexcept {
    return *components_.caches[accel];
  }
  /// \brief Hit/miss/insert counters summed across every device cache.
  [[nodiscard]] cache::CacheStats aggregate_cache_stats() const;
  /// \brief Zero the hit/miss/insert counters of every device cache (the
  /// residents stay) — the start of a measured run.
  void reset_cache_stats();
  /// \brief The analytical cost model this engine charges against.
  [[nodiscard]] const hw::CostModel& costs() const noexcept { return costs_; }
  /// \brief The layer scheduler (engine-thread only).
  [[nodiscard]] sched::LayerScheduler& scheduler() noexcept {
    return *components_.scheduler;
  }
  /// \brief Active execution mode (fixed at construction).
  [[nodiscard]] exec::ExecutionMode execution_mode() const noexcept {
    return components_.execution_mode;
  }
  /// \brief The execution backend, if one is attached (may be null; may be
  /// shared across engines that run sequentially).
  [[nodiscard]] const std::shared_ptr<exec::HybridExecutor>& executor()
      const noexcept {
    return components_.executor;
  }

  /// \brief Pre-populate the device caches (from warmup frequencies),
  /// filling across devices round-robin. Pinned entries model static
  /// placements that never change at runtime.
  void seed_cache(std::span<const moe::ExpertId> experts, bool pinned);

  /// \brief Run one prefill request; returns TTFT and friends.
  [[nodiscard]] StageMetrics run_prefill(const workload::PrefillTrace& trace);

  /// \brief Run a decode phase; returns per-token latencies and TBT.
  [[nodiscard]] StageMetrics run_decode(const workload::DecodeTrace& trace);

  /// \brief Step-level entry point: process one forward pass — a prefill
  /// chunk, a decode step, or a continuous-batching composition of several
  /// requests (workload::merge_forward_traces) — under the given stage's
  /// scheduling semantics, accumulating engine counters into `metrics` (the
  /// caller owns per_forward/total_latency/cache bookkeeping). Each layer
  /// runs five phases: resolve residency, schedule, stage uploads
  /// (prefetch), maintain the caches, execute. Returns the *modeled* pass
  /// latency in every mode; in Threaded mode the wall-clock measurement
  /// lands in metrics.measured_latency and the layer-output digest in
  /// metrics.exec_digest. Engine-thread only: in Threaded mode the calling
  /// thread runs accelerator 0's lane while the backend's FIFO lanes (one
  /// CopyEngine for the CPU experts, one per further accelerator, one per
  /// link) run the rest.
  double run_step(const workload::ForwardTrace& forward, sched::Stage stage,
                  StageMetrics& metrics);

 private:
  /// The loop behind run_prefill/run_decode.
  StageMetrics run_forwards(sched::Stage stage, std::size_t tokens,
                            std::span<const workload::ForwardTrace> forwards);

  EngineComponents components_;
  const hw::CostModel& costs_;
};

}  // namespace hybrimoe::runtime
