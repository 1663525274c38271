#include "sched/schedulers.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace hybrimoe::sched {

namespace {

/// `table` with one schedule call's clocks. An empty `link_busy` means every
/// link carries `pcie_busy_until`.
SimOptions with_clocks(SimOptions table, const hw::CostModel& costs,
                       double gpu_busy_until, double pcie_busy_until,
                       std::span<const double> link_busy) {
  table.gpu_busy_until = gpu_busy_until;
  if (link_busy.empty()) {
    table.link_busy_until.assign(costs.num_accelerators(), pcie_busy_until);
  } else {
    table.link_busy_until.assign(link_busy.begin(), link_busy.end());
  }
  return table;
}

}  // namespace

SimScheduler SimScheduler::hybrid(SimOptions options) {
  return SimScheduler("hybrid", options, options);
}

SimScheduler SimScheduler::fixed_map() {
  // Prefill: kTransformers streams misses to the GPU; the CPU is not used
  // for expert computation in this stage (paper Table I).
  SimOptions prefill;
  prefill.allow_cpu = false;
  prefill.allow_cpu_steal = false;
  prefill.transfer_only_if_beneficial = false;
  // Decode: hits on GPU, misses on CPU, nothing moves.
  SimOptions decode;
  decode.allow_transfers = false;
  decode.allow_cpu_steal = false;
  return SimScheduler("fixed-map", prefill, decode);
}

SimScheduler SimScheduler::gpu_centric() {
  SimOptions options;
  options.allow_cpu = false;
  options.transfer_only_if_beneficial = false;
  return SimScheduler("gpu-centric", options, options);
}

SimScheduler::SimScheduler(std::string name, SimOptions prefill, SimOptions decode)
    : name_(std::move(name)), prefill_(std::move(prefill)), decode_(std::move(decode)) {
  prefill_.validate();
  decode_.validate();
}

LayerPlan SimScheduler::schedule(std::uint16_t layer, Stage stage,
                                 std::span<const ExpertDemand> demands,
                                 const hw::CostModel& costs, double gpu_busy_until,
                                 double pcie_busy_until,
                                 std::span<const double> link_busy) {
  const SimOptions& table = stage == Stage::Prefill ? prefill_ : decode_;
  return simulate_layer(layer, stage, demands, costs,
                        with_clocks(table, costs, gpu_busy_until, pcie_busy_until, link_busy));
}

StaticLayerScheduler::StaticLayerScheduler(std::size_t num_layers, double gpu_fraction)
    : num_layers_(num_layers) {
  HYBRIMOE_REQUIRE(num_layers > 0, "StaticLayerScheduler needs layers");
  HYBRIMOE_REQUIRE(gpu_fraction >= 0.0 && gpu_fraction <= 1.0,
                   "gpu_fraction must be in [0,1]");
  gpu_layers_ = static_cast<std::size_t>(
      std::llround(gpu_fraction * static_cast<double>(num_layers)));
}

bool StaticLayerScheduler::is_gpu_layer(std::uint16_t layer) const {
  HYBRIMOE_REQUIRE(layer < num_layers_, "layer out of range");
  if (gpu_layers_ == 0) return false;
  if (gpu_layers_ >= num_layers_) return true;
  // Even spread: layer l is a GPU layer when its bucket index advances.
  const std::size_t l = layer;
  return (l * gpu_layers_) / num_layers_ != ((l + 1) * gpu_layers_) / num_layers_;
}

LayerPlan StaticLayerScheduler::schedule(std::uint16_t layer, Stage stage,
                                         std::span<const ExpertDemand> demands,
                                         const hw::CostModel& costs,
                                         double gpu_busy_until, double pcie_busy_until,
                                         std::span<const double> link_busy) {
  // Residency is the static assignment, not the dynamic cache. GPU layers
  // spread their experts across the topology's accelerators keyed by expert
  // id — a *stable* placement: the same expert lands on the same device in
  // every step, as a real static split would.
  std::vector<ExpertDemand> adjusted(demands.begin(), demands.end());
  const bool on_gpu = is_gpu_layer(layer);
  const std::size_t num_accels = costs.num_accelerators();
  for (auto& d : adjusted) {
    d.cached = on_gpu;
    if (on_gpu) d.cached_on = accelerator_device(d.expert % num_accels);
  }

  SimOptions table;
  table.allow_cpu = !on_gpu;
  table.allow_transfers = on_gpu;  // vacuous on GPU layers: every expert is resident
  table.allow_cpu_steal = false;
  return simulate_layer(layer, stage, adjusted, costs,
                        with_clocks(table, costs, gpu_busy_until, pcie_busy_until, link_busy));
}

}  // namespace hybrimoe::sched
