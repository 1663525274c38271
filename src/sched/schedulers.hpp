#pragma once

/// \file schedulers.hpp
/// The per-layer scheduling policies compared in the paper's evaluation.
/// All of them run the same greedy simulation against the same cost model,
/// so that end-to-end differences isolate the *policy*, exactly as the
/// paper intends:
///
///  * SimScheduler — simulate_layer under a per-stage SimOptions table:
///      - hybrid()      HybriMoE §IV-B (dynamic CPU/GPU/PCIe balancing);
///      - fixed_map()   kTransformers: static frequency mapping, CPU
///                      computes misses during decode only (Table I);
///      - gpu_centric() AdapMoE: everything on the GPU, misses loaded on
///                      demand;
///  * StaticLayerScheduler — llama.cpp: whole layers pinned to a device.

#include <memory>
#include <string>

#include "sched/simulator.hpp"

namespace hybrimoe::sched {

/// Produces a LayerPlan for each MoE layer's activated experts.
class LayerScheduler {
 public:
  virtual ~LayerScheduler() = default;
  /// Registry key and display name of the policy.
  [[nodiscard]] virtual std::string name() const = 0;
  /// `gpu_busy_until`: accelerator occupancy by the layer's dense phase
  /// (attention + shared experts); routed accelerator work is appended after
  /// it. `pcie_busy_until`: in-flight transfers carried over from previous
  /// layers on every link; `link_busy` optionally carries per-link values
  /// (one entry per accelerator of the cost model's topology) and overrides
  /// the scalar when non-empty.
  /// Benchmark-pinned surface: bench/e2e overrides it; `pcie_busy_until` stays.
  [[nodiscard]] virtual LayerPlan schedule(std::uint16_t layer, Stage stage,
                                           std::span<const ExpertDemand> demands,
                                           const hw::CostModel& costs,
                                           double gpu_busy_until = 0.0,
                                           double pcie_busy_until = 0.0,
                                           std::span<const double> link_busy = {}) = 0;
  /// Simulation options a prefetcher should use when estimating the impact
  /// of caching an extra expert under this scheduler.
  [[nodiscard]] virtual SimOptions impact_options() const { return SimOptions{}; }
};

/// simulate_layer with one SimOptions table per stage — HybriMoE's scheduler
/// and the Table I baselines that are the same simulation with priority
/// rules switched off.
class SimScheduler final : public LayerScheduler {
 public:
  /// HybriMoE's dynamic hybrid scheduling (§IV-B): `options` in both stages
  /// (the default enables every priority rule).
  [[nodiscard]] static SimScheduler hybrid(SimOptions options = {});
  /// kTransformers-style fixed mapping: cached experts on the GPU, misses on
  /// the CPU — but only in decode; during prefill misses are streamed to the
  /// GPU (Table I: "CPU Computation: Decode"). No dynamic rebalancing, no
  /// work stealing, no beneficial-transfer search.
  [[nodiscard]] static SimScheduler fixed_map();
  /// AdapMoE-style GPU-centric scheduling: the CPU never computes experts;
  /// every miss is transferred (highest load first) and computed on the GPU.
  [[nodiscard]] static SimScheduler gpu_centric();

  /// The policy's registry key ("hybrid", "fixed-map", "gpu-centric").
  [[nodiscard]] std::string name() const override { return name_; }
  /// simulate_layer under the stage's table with the given clocks.
  [[nodiscard]] LayerPlan schedule(std::uint16_t layer, Stage stage,
                                   std::span<const ExpertDemand> demands,
                                   const hw::CostModel& costs,
                                   double gpu_busy_until = 0.0,
                                   double pcie_busy_until = 0.0,
                                   std::span<const double> link_busy = {}) override;
  /// The decode table: prefetches pay off in later decode steps.
  [[nodiscard]] SimOptions impact_options() const override { return decode_; }

 private:
  /// A policy named `name` that simulates prefill layers under `prefill` and
  /// decode layers under `decode` (both validated; their clocks are ignored).
  SimScheduler(std::string name, SimOptions prefill, SimOptions decode);

  std::string name_;
  SimOptions prefill_;
  SimOptions decode_;
};

/// llama.cpp-style static mapping: a fixed fraction of layers is fully GPU
/// resident, every other layer computes all experts on the CPU. The cached
/// flags of the demands are ignored — residency is the layer assignment.
class StaticLayerScheduler final : public LayerScheduler {
 public:
  /// Distributes round(gpu_fraction * num_layers) GPU layers evenly.
  StaticLayerScheduler(std::size_t num_layers, double gpu_fraction);

  /// "static-layer".
  [[nodiscard]] std::string name() const override { return "static-layer"; }
  /// Whether `layer` is one of the GPU-resident layers.
  [[nodiscard]] bool is_gpu_layer(std::uint16_t layer) const;
  /// How many layers are GPU resident.
  [[nodiscard]] std::size_t num_gpu_layers() const noexcept { return gpu_layers_; }
  /// GPU layers run every expert on the accelerators (keyed by expert id),
  /// CPU layers run every expert on the CPU; nothing is transferred.
  [[nodiscard]] LayerPlan schedule(std::uint16_t layer, Stage stage,
                                   std::span<const ExpertDemand> demands,
                                   const hw::CostModel& costs,
                                   double gpu_busy_until = 0.0,
                                   double pcie_busy_until = 0.0,
                                   std::span<const double> link_busy = {}) override;

 private:
  std::size_t num_layers_;
  std::size_t gpu_layers_;
};

}  // namespace hybrimoe::sched
