#include "hw/topology.hpp"

#include <cmath>

#include "moe/model_config.hpp"
#include "util/assert.hpp"

namespace hybrimoe::hw {

void MachineProfile::validate() const {
  HYBRIMOE_REQUIRE(cpu.valid(), "cpu device parameters invalid");
  HYBRIMOE_REQUIRE(gpu.valid(), "gpu device parameters invalid");
  HYBRIMOE_REQUIRE(pcie.valid(), "pcie link parameters invalid");
}

MachineProfile MachineProfile::a6000_xeon10() {
  MachineProfile m;
  m.name = "A6000 + Xeon-5220R(10c)";
  // 10 cores of a 2.2 GHz Xeon on llama.cpp Q4 dequant-GEMM kernels: well
  // below AVX-512 peak, and ~35 GB/s of the shared DDR4 bandwidth.
  m.cpu = {.flops = 150e9, .mem_bandwidth = 35e9, .launch_overhead = 4e-6,
           .warmup_penalty = 80e-6, .flops_peak = 450e9, .flops_ramp_half = 4.0};
  // A6000: 38.7 TF fp32 peak, Marlin 4-bit GEMM sustains far above that on
  // tensor cores; memory 768 GB/s peak -> ~700 sustained.
  m.gpu = {.flops = 60e12, .mem_bandwidth = 700e9, .launch_overhead = 30e-6,
           .warmup_penalty = 0.0};
  // PCIe 4.0 x16: 32 GB/s raw, ~25 GB/s effective with pinned-memory DMA.
  m.pcie = {.bandwidth = 25e9, .latency = 15e-6};
  return m;
}

MachineProfile MachineProfile::laptop_edge() {
  MachineProfile m;
  m.name = "Laptop dGPU + 8c mobile CPU";
  m.cpu = {.flops = 120e9, .mem_bandwidth = 28e9, .launch_overhead = 5e-6,
           .warmup_penalty = 60e-6, .flops_peak = 300e9, .flops_ramp_half = 4.0};
  m.gpu = {.flops = 18e12, .mem_bandwidth = 270e9, .launch_overhead = 35e-6,
           .warmup_penalty = 0.0};
  m.pcie = {.bandwidth = 12e9, .latency = 20e-6};
  return m;
}

MachineProfile MachineProfile::unit_test_machine() {
  // Engineered so that, for a model whose routed expert has exactly 1 FLOP
  // per token-parameter unit... in practice tests pair this with
  // ModelConfig::tiny() and only rely on the ratios documented here:
  //   cpu_expert_time(load)    ~= load seconds (flop bound, no overheads)
  //   gpu_expert_time(load, 0) ~= 1 second     (bandwidth bound, flat)
  //   transfer_time(0)         ~= 3 seconds
  MachineProfile m;
  m.name = "unit-test";
  const moe::ModelConfig tiny = moe::ModelConfig::tiny();
  const double expert_flops_per_token = tiny.routed.flops(1);
  const auto expert_bytes = static_cast<double>(tiny.routed.bytes(4.25));
  m.cpu = {.flops = expert_flops_per_token, .mem_bandwidth = 1e18,
           .launch_overhead = 0.0, .warmup_penalty = 0.0};
  m.gpu = {.flops = 1e18, .mem_bandwidth = expert_bytes, .launch_overhead = 0.0,
           .warmup_penalty = 0.0};
  m.pcie = {.bandwidth = expert_bytes / 3.0, .latency = 0.0};
  return m;
}

void AcceleratorProfile::validate() const {
  HYBRIMOE_REQUIRE(compute.valid(), "accelerator compute parameters invalid");
  HYBRIMOE_REQUIRE(link.valid(), "accelerator link parameters invalid");
  HYBRIMOE_REQUIRE(cache_share >= 0.0 && std::isfinite(cache_share),
                   "accelerator cache_share must be finite and >= 0");
}

void Topology::validate() const {
  HYBRIMOE_REQUIRE(cpu.valid(), "cpu device parameters invalid");
  HYBRIMOE_REQUIRE(!accelerators.empty(), "a topology needs at least one accelerator");
  HYBRIMOE_REQUIRE(accelerators.size() <= 254,
                   "at most 254 accelerators (DeviceId is one byte, 0 is the CPU)");
  double share_sum = 0.0;
  for (const auto& accel : accelerators) {
    accel.validate();
    share_sum += accel.cache_share;
  }
  HYBRIMOE_REQUIRE(share_sum > 0.0, "at least one accelerator needs a cache share");
}

Topology Topology::from_machine(const MachineProfile& machine) {
  machine.validate();
  Topology t;
  t.name = machine.name;
  t.cpu = machine.cpu;
  t.accelerators.push_back({.name = "gpu0",
                            .compute = machine.gpu,
                            .link = machine.pcie,
                            .cache_share = 1.0});
  return t;
}

Topology Topology::replicated(const MachineProfile& machine, std::size_t n,
                              std::string name) {
  HYBRIMOE_REQUIRE(n >= 1 && n <= 254, "replicated topology needs 1..254 accelerators");
  Topology t = from_machine(machine);
  t.name = name.empty() ? machine.name + " x" + std::to_string(n) : std::move(name);
  const AcceleratorProfile base = t.accelerators.front();
  t.accelerators.clear();
  for (std::size_t i = 0; i < n; ++i) {
    AcceleratorProfile accel = base;
    accel.name = "gpu" + std::to_string(i);
    t.accelerators.push_back(std::move(accel));
  }
  return t;
}

Topology Topology::a6000_xeon10() {
  return from_machine(MachineProfile::a6000_xeon10());
}

Topology Topology::dual_a6000() {
  return replicated(MachineProfile::a6000_xeon10(), 2, "2x A6000 + Xeon-5220R(10c)");
}

Topology Topology::quad_sim() {
  // Four mid-range devices: half an A6000's throughput each, on half-width
  // (x8) links — the aggregate compute matches dual_a6000 but with twice the
  // scheduling freedom, which is exactly what N-device policies must exploit.
  MachineProfile half = MachineProfile::a6000_xeon10();
  half.gpu.flops /= 2.0;
  half.gpu.mem_bandwidth /= 2.0;
  half.pcie.bandwidth /= 2.0;
  return replicated(half, 4, "4x sim-GPU (A6000/2, x8 links) + Xeon-5220R(10c)");
}

std::vector<std::size_t> Topology::split_cache_capacity(std::size_t total) const {
  validate();
  const std::size_t n = accelerators.size();
  std::vector<std::size_t> split(n, 0);
  if (n == 1) {
    split[0] = total;
    return split;
  }
  double share_sum = 0.0;
  for (const auto& accel : accelerators) share_sum += accel.cache_share;
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    split[i] = static_cast<std::size_t>(std::floor(
        static_cast<double>(total) * accelerators[i].cache_share / share_sum));
    assigned += split[i];
  }
  // Largest-remainder would need another sort; the deterministic low-index
  // preference is enough — shares are coarse policy weights, not quotas.
  for (std::size_t i = 0; assigned < total; i = (i + 1) % n) {
    if (accelerators[i].cache_share > 0.0) {
      ++split[i];
      ++assigned;
    }
  }
  return split;
}

}  // namespace hybrimoe::hw
