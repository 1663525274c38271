#include "hw/topology.hpp"

#include <cmath>

#include "moe/model_config.hpp"
#include "util/assert.hpp"

namespace hybrimoe::hw {

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

Topology Topology::replicated(const Topology& base, std::size_t n, std::string name) {
  HYBRIMOE_REQUIRE(n >= 1 && n <= 254, "replicated topology needs 1..254 accelerators");
  HYBRIMOE_REQUIRE(!base.accelerators.empty(),
                   "replicated topology needs an accelerator to copy");
  Topology t = base;
  t.name = name.empty() ? base.name + " x" + std::to_string(n) : std::move(name);
  t.accelerators.resize(n, base.accelerators.front());
  for (std::size_t i = 0; i < n; ++i) t.accelerators[i].name = "gpu" + std::to_string(i);
  return t;
}

Topology Topology::a6000_xeon10() {
  Topology t;
  t.name = "A6000 + Xeon-5220R(10c)";
  // 10 cores of a 2.2 GHz Xeon on llama.cpp Q4 dequant-GEMM kernels: well
  // below AVX-512 peak, and ~35 GB/s of the shared DDR4 bandwidth.
  t.cpu = {.flops = 150e9, .mem_bandwidth = 35e9, .launch_overhead = 4e-6,
           .warmup_penalty = 80e-6, .flops_peak = 450e9, .flops_ramp_half = 4.0};
  // A6000: 38.7 TF fp32 peak, Marlin 4-bit GEMM sustains far above that on
  // tensor cores; memory 768 GB/s peak -> ~700 sustained. PCIe 4.0 x16:
  // 32 GB/s raw, ~25 GB/s effective with pinned-memory DMA.
  t.accelerators.push_back({.name = "gpu0",
                            .compute = {.flops = 60e12, .mem_bandwidth = 700e9,
                                        .launch_overhead = 30e-6, .warmup_penalty = 0.0},
                            .link = {.bandwidth = 25e9, .latency = 15e-6},
                            .cache_share = 1.0});
  return t;
}

Topology Topology::dual_a6000() {
  return replicated(a6000_xeon10(), 2, "2x A6000 + Xeon-5220R(10c)");
}

Topology Topology::quad_sim() {
  // Four mid-range devices: half an A6000's throughput each, on half-width
  // (x8) links — the aggregate compute matches dual_a6000 but with twice the
  // scheduling freedom, which is exactly what N-device policies must exploit.
  Topology half = a6000_xeon10();
  AcceleratorProfile& gpu = half.accelerators.front();
  gpu.compute.flops /= 2.0;
  gpu.compute.mem_bandwidth /= 2.0;
  gpu.link.bandwidth /= 2.0;
  return replicated(half, 4, "4x sim-GPU (A6000/2, x8 links) + Xeon-5220R(10c)");
}

Topology Topology::laptop_edge() {
  Topology t;
  t.name = "Laptop dGPU + 8c mobile CPU";
  t.cpu = {.flops = 120e9, .mem_bandwidth = 28e9, .launch_overhead = 5e-6,
           .warmup_penalty = 60e-6, .flops_peak = 300e9, .flops_ramp_half = 4.0};
  t.accelerators.push_back({.name = "gpu0",
                            .compute = {.flops = 18e12, .mem_bandwidth = 270e9,
                                        .launch_overhead = 35e-6, .warmup_penalty = 0.0},
                            .link = {.bandwidth = 12e9, .latency = 20e-6},
                            .cache_share = 1.0});
  return t;
}

Topology Topology::unit_test() {
  // Engineered so that, for a model whose routed expert has exactly 1 FLOP
  // per token-parameter unit... in practice tests pair this with
  // ModelConfig::tiny() and only rely on the ratios documented here:
  //   cpu_expert_time(load)    ~= load seconds (flop bound, no overheads)
  //   gpu_expert_time(load, 0) ~= 1 second     (bandwidth bound, flat)
  //   transfer_time(0)         ~= 3 seconds
  Topology t;
  t.name = "unit-test";
  const moe::ModelConfig tiny = moe::ModelConfig::tiny();
  const double expert_flops_per_token = tiny.routed.flops(1);
  const auto expert_bytes = static_cast<double>(tiny.routed.bytes(4.25));
  t.cpu = {.flops = expert_flops_per_token, .mem_bandwidth = 1e18,
           .launch_overhead = 0.0, .warmup_penalty = 0.0};
  t.accelerators.push_back({.name = "gpu0",
                            .compute = {.flops = 1e18, .mem_bandwidth = expert_bytes,
                                        .launch_overhead = 0.0, .warmup_penalty = 0.0},
                            .link = {.bandwidth = expert_bytes / 3.0, .latency = 0.0},
                            .cache_share = 1.0});
  return t;
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
