#pragma once

/// \file schedulers.hpp
/// The per-layer scheduling policies compared in the paper's evaluation.
/// All four run against the same simulator/cost model so that end-to-end
/// differences isolate the *policy*, exactly as the paper intends:
///
///  * HybridScheduler      — HybriMoE §IV-B (dynamic CPU/GPU/PCIe balancing);
///  * FixedMapScheduler    — kTransformers: static frequency mapping, CPU
///                           computes misses during decode only (Table I);
///  * GpuCentricScheduler  — AdapMoE: everything on the GPU, misses loaded
///                           on demand;
///  * StaticLayerScheduler — llama.cpp: whole layers pinned to a device.

#include <memory>
#include <string>

#include "sched/simulator.hpp"

namespace hybrimoe::sched {

/// Produces a LayerPlan for each MoE layer's activated experts.
class LayerScheduler {
 public:
  virtual ~LayerScheduler() = default;
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

/// HybriMoE's dynamic hybrid scheduling (§IV-B): all priority rules active.
class HybridScheduler final : public LayerScheduler {
 public:
  explicit HybridScheduler(SimOptions options = {});
  [[nodiscard]] std::string name() const override { return "hybrid"; }
  [[nodiscard]] LayerPlan schedule(std::uint16_t layer, Stage stage,
                                   std::span<const ExpertDemand> demands,
                                   const hw::CostModel& costs,
                                   double gpu_busy_until = 0.0,
                                   double pcie_busy_until = 0.0,
                                   std::span<const double> link_busy = {}) override;
  [[nodiscard]] SimOptions impact_options() const override { return options_; }

 private:
  SimOptions options_;
};

/// kTransformers-style fixed mapping: cached experts on the GPU, misses on
/// the CPU — but only in decode; during prefill misses are streamed to the
/// GPU (Table I: "CPU Computation: Decode"). No dynamic rebalancing, no
/// work stealing, no beneficial-transfer search.
class FixedMapScheduler final : public LayerScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "fixed-map"; }
  [[nodiscard]] LayerPlan schedule(std::uint16_t layer, Stage stage,
                                   std::span<const ExpertDemand> demands,
                                   const hw::CostModel& costs,
                                   double gpu_busy_until = 0.0,
                                   double pcie_busy_until = 0.0,
                                   std::span<const double> link_busy = {}) override;
  [[nodiscard]] SimOptions impact_options() const override;
};

/// AdapMoE-style GPU-centric scheduling: the CPU never computes experts;
/// every miss is transferred (highest load first) and computed on the GPU.
class GpuCentricScheduler final : public LayerScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "gpu-centric"; }
  [[nodiscard]] LayerPlan schedule(std::uint16_t layer, Stage stage,
                                   std::span<const ExpertDemand> demands,
                                   const hw::CostModel& costs,
                                   double gpu_busy_until = 0.0,
                                   double pcie_busy_until = 0.0,
                                   std::span<const double> link_busy = {}) override;
  [[nodiscard]] SimOptions impact_options() const override;
};

/// llama.cpp-style static mapping: a fixed fraction of layers is fully GPU
/// resident, every other layer computes all experts on the CPU. The cached
/// flags of the demands are ignored — residency is the layer assignment.
class StaticLayerScheduler final : public LayerScheduler {
 public:
  /// Distributes round(gpu_fraction * num_layers) GPU layers evenly.
  StaticLayerScheduler(std::size_t num_layers, double gpu_fraction);

  [[nodiscard]] std::string name() const override { return "static-layer"; }
  [[nodiscard]] bool is_gpu_layer(std::uint16_t layer) const;
  [[nodiscard]] std::size_t num_gpu_layers() const noexcept { return gpu_layers_; }
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
