#pragma once

/// \file cost_model.hpp
/// Analytical CPU/accelerator/link cost model — the substitute for the
/// paper's RTX A6000 + Xeon Gold 5220R testbed, generalized over an
/// hw::Topology of one CPU plus N accelerator devices.
///
/// Every scheduling decision in the paper consumes only three quantities:
/// per-expert compute time on each device and per-expert transfer time over
/// each link. The model reproduces the regimes the paper measures in
/// Fig. 3(e)/(f):
///
///  * device compute time = launch overhead + max(FLOP-bound, bandwidth-bound)
///    — so GPU per-expert time is essentially flat in token load (overhead /
///    weight-streaming dominated) while CPU time grows linearly once the
///    FLOP term dominates;
///  * the first CPU task of a layer pays a warmup penalty (cold caches),
///    matching the "first expert computation on the CPU is slower"
///    observation;
///  * link transfer time = latency + bytes / bandwidth, constant per expert.
///
/// Accelerator queries (`gpu_expert_time(tokens, accel)`,
/// `transfer_time(accel)`) address devices by topology index; accelerator 0
/// is the primary device, the GPU of the historical CPU+GPU pair.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hw/topology.hpp"
#include "moe/model_config.hpp"

namespace hybrimoe::hw {

/// Time queries for one (topology, model) pair.
class CostModel {
 public:
  /// Single-accelerator convenience: the historical CPU+GPU pair
  /// (equivalent to CostModel(Topology::from_machine(machine), model)).
  CostModel(MachineProfile machine, moe::ModelConfig model);
  /// Full N-accelerator model; `topology` must validate.
  CostModel(Topology topology, moe::ModelConfig model);

  /// The full device/link complement this model answers queries for.
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  /// Accelerator count N of the topology (>= 1).
  [[nodiscard]] std::size_t num_accelerators() const noexcept {
    return topology_.accelerators.size();
  }
  /// The model whose expert shapes are being charged.
  [[nodiscard]] const moe::ModelConfig& model() const noexcept { return model_; }

  /// Generic device compute time for a task of `flops` floating ops touching
  /// `bytes` of weights at batch size `tokens` (drives the GEMM ramp).
  [[nodiscard]] double compute_time(const ComputeDeviceParams& dev, double flops,
                                    double bytes, std::size_t tokens,
                                    bool warm = true) const noexcept;

  /// One routed expert on the CPU with `tokens` tokens. `warm` is false for
  /// the first expert task of a layer burst.
  [[nodiscard]] double cpu_expert_time(std::size_t tokens, bool warm = true) const;
  /// One routed expert on accelerator `accel` (topology index < N).
  [[nodiscard]] double gpu_expert_time(std::size_t tokens, std::size_t accel) const;
  /// Moving one routed expert's weights over accelerator `accel`'s link.
  [[nodiscard]] double transfer_time(std::size_t accel) const;

  /// All shared experts of one layer on the primary accelerator (they are
  /// pinned residents of the dense pipeline).
  [[nodiscard]] double shared_experts_time(std::size_t tokens) const;
  /// Attention + norms of one layer on the primary accelerator.
  [[nodiscard]] double attention_time(std::size_t tokens) const;

  // -- Fault injection (scenario layer) -----------------------------------
  // Runtime device/link health. The default state (every device available,
  // every link at scale 1.0) is bit-identical to the pre-fault model: the
  // availability flag is only consulted by schedulers that ask, and a link
  // scale of exactly 1.0 multiplies bandwidth by 1.0.

  /// Whether accelerator `accel` is currently reachable.
  [[nodiscard]] bool accelerator_available(std::size_t accel) const;
  /// Mark accelerator `accel` lost (false) or recovered (true). Accelerator
  /// 0 hosts the dense pipeline and cannot be lost; losing a lost device or
  /// recovering an available device throws std::invalid_argument.
  void set_accelerator_available(std::size_t accel, bool available);
  /// Current bandwidth multiplier on accelerator `accel`'s link.
  [[nodiscard]] double link_bandwidth_scale(std::size_t accel) const;
  /// Scale accelerator `accel`'s link bandwidth (straggler injection).
  /// `scale` must be positive; 1.0 restores the healthy link.
  void set_link_bandwidth_scale(std::size_t accel, double scale);

 private:
  Topology topology_;
  moe::ModelConfig model_;
  std::vector<std::uint8_t> accel_available_;  ///< per-accelerator health
  std::vector<double> link_scale_;             ///< per-link bandwidth multiplier
};

}  // namespace hybrimoe::hw
