#pragma once

/// \file topology.hpp
/// Hardware description types: per-device compute parameters, host-device
/// links, and Topology — one host CPU plus N accelerator devices, each with
/// its own compute parameters, host link and share of the expert-cache
/// budget. Topology is the one hardware description the cost model, the
/// schedulers and the engine consume. MachineProfile (one CPU + one GPU +
/// PCIe link) remains as a compact way to write down and calibrate a
/// one-accelerator machine; Topology::from_machine upgrades it losslessly,
/// and every scheduler metric is bit-identical between the two — the
/// equivalence the preset tests pin down. Time queries over a (topology,
/// model) pair live in cost_model.hpp.

#include <cstddef>
#include <string>
#include <vector>

namespace hybrimoe::hw {

/// Sustained-throughput description of one compute device.
struct ComputeDeviceParams {
  double flops = 0.0;            ///< sustained FLOP/s at single-token GEMV
  double mem_bandwidth = 0.0;    ///< bytes/s streaming weights
  double launch_overhead = 0.0;  ///< fixed seconds per dispatched task
  double warmup_penalty = 0.0;   ///< extra seconds on the first task of a burst
  /// GEMM-regime throughput: batched multi-token matmuls amortise loads and
  /// reach far higher FLOP rates than GEMV. 0 disables the ramp (flat).
  double flops_peak = 0.0;
  /// Token count at which half the GEMV->GEMM headroom is reached.
  double flops_ramp_half = 4.0;

  /// Effective FLOP/s at a given batch size.
  [[nodiscard]] double effective_flops(std::size_t tokens) const noexcept {
    if (flops_peak <= flops) return flops;
    const auto t = static_cast<double>(tokens);
    return flops + (flops_peak - flops) * t / (t + flops_ramp_half);
  }

  /// Structural validity (positive throughputs, non-negative overheads).
  [[nodiscard]] constexpr bool valid() const noexcept {
    return flops > 0.0 && mem_bandwidth > 0.0 && launch_overhead >= 0.0 &&
           warmup_penalty >= 0.0 && flops_peak >= 0.0 && flops_ramp_half > 0.0;
  }
};

/// A host-device interconnect.
struct TransferLinkParams {
  double bandwidth = 0.0;  ///< bytes/s
  double latency = 0.0;    ///< fixed seconds per transfer

  /// Structural validity (positive bandwidth, non-negative latency).
  [[nodiscard]] constexpr bool valid() const noexcept {
    return bandwidth > 0.0 && latency >= 0.0;
  }
};

/// One machine = CPU + GPU + PCIe link: the single-pair view. Retained as
/// the convenient way to describe (and calibrate against) one-accelerator
/// systems; Topology::from_machine upgrades it losslessly.
struct MachineProfile {
  std::string name;
  ComputeDeviceParams cpu;
  ComputeDeviceParams gpu;
  TransferLinkParams pcie;

  /// Throws std::invalid_argument on invalid device/link parameters.
  void validate() const;

  /// The paper's testbed: RTX A6000 (PCIe 4.0 x16) + Xeon Gold 5220R capped
  /// at 10 cores. Throughputs are sustained figures for 4-bit kernels, not
  /// peak datasheet numbers.
  [[nodiscard]] static MachineProfile a6000_xeon10();
  /// A smaller edge box (laptop dGPU + 8-core mobile CPU) for scaling studies.
  [[nodiscard]] static MachineProfile laptop_edge();
  /// Unit-cost machine used by scheduler unit tests: CPU time == load units,
  /// GPU time == 1 per expert, transfer == 3 (the Fig. 5 worked example).
  [[nodiscard]] static MachineProfile unit_test_machine();
};

/// One accelerator of a Topology: its compute throughput, the host link that
/// feeds it, and its relative share of the expert-cache capacity budget.
struct AcceleratorProfile {
  std::string name;             ///< display name ("gpu0", "gpu1", ...)
  ComputeDeviceParams compute;  ///< device compute throughput
  TransferLinkParams link;      ///< host -> device interconnect
  /// Relative weight when the engine splits the total expert-cache capacity
  /// across accelerators (proportional split, remainder to low indices).
  double cache_share = 1.0;

  /// Throws std::invalid_argument on invalid parameters.
  void validate() const;
};

/// One machine = host CPU + N accelerators (N >= 1), each with a dedicated
/// host link. Accelerator 0 is the *primary* device — the "GPU" of the
/// historical CPU+GPU pair; sched::DeviceId{1} addresses it.
struct Topology {
  std::string name;
  ComputeDeviceParams cpu;
  std::vector<AcceleratorProfile> accelerators;

  /// Throws std::invalid_argument unless the CPU and every accelerator
  /// validate and at least one accelerator is present.
  void validate() const;

  /// Accelerator count N (>= 1 after validate()).
  [[nodiscard]] std::size_t num_accelerators() const noexcept {
    return accelerators.size();
  }

  /// Lossless upgrade of a CPU+GPU pair: one accelerator named "gpu0" with
  /// the machine's GPU params and PCIe link, cache_share 1.
  [[nodiscard]] static Topology from_machine(const MachineProfile& machine);

  /// `n` identical copies of the machine's accelerator, each with its own
  /// dedicated link (the multi-GPU simulation testbed). `n` must be in
  /// [1, 254] (DeviceId is one byte; 0 is the CPU).
  [[nodiscard]] static Topology replicated(const MachineProfile& machine, std::size_t n,
                                           std::string name = "");

  /// The paper's testbed as a 1-accelerator topology (the default).
  [[nodiscard]] static Topology a6000_xeon10();
  /// Two A6000-class GPUs on dedicated PCIe 4.0 x16 links, shared Xeon host.
  [[nodiscard]] static Topology dual_a6000();
  /// Four simulated mid-range GPUs (A6000 halved, x8 links) for scaling
  /// studies — aggregate compute of dual_a6000, twice the scheduling freedom.
  [[nodiscard]] static Topology quad_sim();

  /// Split a total expert-cache capacity across accelerators proportionally
  /// to cache_share (floor + remainder to the lowest-index devices), so the
  /// slot total is preserved exactly. Single-accelerator topologies get the
  /// whole budget on device 0 — bit-compatible with the pair model.
  [[nodiscard]] std::vector<std::size_t> split_cache_capacity(std::size_t total) const;
};

}  // namespace hybrimoe::hw
