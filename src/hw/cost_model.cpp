#include "hw/cost_model.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace hybrimoe::hw {

CostModel::CostModel(Topology topology, moe::ModelConfig model)
    : topology_(std::move(topology)), model_(std::move(model)) {
  topology_.validate();
  model_.validate();
  accel_available_.assign(topology_.accelerators.size(), 1);
  link_scale_.assign(topology_.accelerators.size(), 1.0);
}

bool CostModel::accelerator_available(std::size_t accel) const {
  HYBRIMOE_REQUIRE(accel < topology_.accelerators.size(),
                   "accelerator index out of range");
  return accel_available_[accel] != 0;
}

void CostModel::set_accelerator_available(std::size_t accel, bool available) {
  HYBRIMOE_REQUIRE(accel < topology_.accelerators.size(),
                   "accelerator index out of range");
  if (!available) {
    HYBRIMOE_REQUIRE(accel >= 1,
                     "the primary accelerator (index 0) cannot be lost — it "
                     "hosts the dense pipeline");
    HYBRIMOE_REQUIRE(accel_available_[accel] != 0,
                     "losing an already-lost accelerator");
  } else {
    HYBRIMOE_REQUIRE(accel_available_[accel] == 0,
                     "recovering an accelerator that is still available");
  }
  accel_available_[accel] = available ? 1 : 0;
}

double CostModel::link_bandwidth_scale(std::size_t accel) const {
  HYBRIMOE_REQUIRE(accel < topology_.accelerators.size(),
                   "accelerator index out of range");
  return link_scale_[accel];
}

void CostModel::set_link_bandwidth_scale(std::size_t accel, double scale) {
  HYBRIMOE_REQUIRE(accel < topology_.accelerators.size(),
                   "accelerator index out of range");
  HYBRIMOE_REQUIRE(scale > 0.0, "link bandwidth scale must be positive");
  link_scale_[accel] = scale;
}

double CostModel::compute_time(const ComputeDeviceParams& dev, double flops, double bytes,
                               std::size_t tokens, bool warm) const noexcept {
  const double compute_bound = flops / dev.effective_flops(tokens);
  const double memory_bound = bytes / dev.mem_bandwidth;
  double t = dev.launch_overhead + std::max(compute_bound, memory_bound);
  if (!warm) t += dev.warmup_penalty;
  return t;
}

double CostModel::cpu_expert_time(std::size_t tokens, bool warm) const {
  HYBRIMOE_REQUIRE(tokens > 0, "cpu_expert_time requires a positive load");
  return compute_time(topology_.cpu, model_.routed.flops(tokens),
                      static_cast<double>(model_.routed_expert_bytes()), tokens, warm);
}

double CostModel::gpu_expert_time(std::size_t tokens, std::size_t accel) const {
  HYBRIMOE_REQUIRE(tokens > 0, "gpu_expert_time requires a positive load");
  HYBRIMOE_REQUIRE(accel < topology_.accelerators.size(),
                   "accelerator index out of range");
  return compute_time(topology_.accelerators[accel].compute, model_.routed.flops(tokens),
                      static_cast<double>(model_.routed_expert_bytes()), tokens,
                      /*warm=*/true);
}

double CostModel::transfer_time(std::size_t accel) const {
  HYBRIMOE_REQUIRE(accel < topology_.accelerators.size(),
                   "accelerator index out of range");
  // bandwidth * 1.0 is exact, so a healthy link is bit-identical to the
  // pre-fault model.
  const TransferLinkParams& link = topology_.accelerators[accel].link;
  return link.latency + static_cast<double>(model_.routed_expert_bytes()) /
                            (link.bandwidth * link_scale_[accel]);
}

double CostModel::shared_experts_time(std::size_t tokens) const {
  if (model_.num_shared_experts == 0) return 0.0;
  HYBRIMOE_REQUIRE(tokens > 0, "shared_experts_time requires a positive load");
  const auto n = static_cast<double>(model_.num_shared_experts);
  return compute_time(topology_.accelerators.front().compute,
                      n * model_.shared.flops(tokens),
                      n * static_cast<double>(model_.shared_expert_bytes()), tokens,
                      /*warm=*/true);
}

double CostModel::attention_time(std::size_t tokens) const {
  HYBRIMOE_REQUIRE(tokens > 0, "attention_time requires a positive load");
  return compute_time(topology_.accelerators.front().compute,
                      model_.attention_flops_per_token() * static_cast<double>(tokens),
                      static_cast<double>(model_.attention_bytes()), tokens,
                      /*warm=*/true);
}

}  // namespace hybrimoe::hw
