/// \file functional_moe.cpp
/// End-to-end functional check at small scale: builds a real (tiny) MoE
/// layer with SwiGLU experts, routes a token, partitions the activated
/// experts exactly as the hybrid scheduler assigns them to CPU/GPU, computes
/// each partition separately and verifies the recombined output matches the
/// single-device reference forward — i.e. offload scheduling never changes
/// the math. Also demonstrates the Q4 quantized path and its error bound.

#include <iostream>

#include "hw/cost_model.hpp"
#include "kernels/ops.hpp"
#include "moe/moe_layer.hpp"
#include "sched/simulator.hpp"
#include "util/table.hpp"

int main() {
  using namespace hybrimoe;

  constexpr std::size_t kExperts = 8;
  constexpr std::size_t kTopK = 2;
  constexpr std::size_t kDModel = 48;
  constexpr std::size_t kDff = 96;

  util::Rng rng(123);
  const moe::MoeLayer layer(rng, kExperts, kTopK, kDModel, kDff, /*num_shared=*/1);

  // A random input token.
  std::vector<float> x(kDModel);
  for (float& v : x) v = static_cast<float>(rng.gaussian());

  // Reference forward (single device).
  const auto reference = layer.forward(x);
  const auto routing = layer.route(x);

  std::cout << "functional MoE layer: " << kExperts << " experts, top-" << kTopK
            << ", d_model=" << kDModel << "\n\nrouted to:";
  for (std::size_t k = 0; k < routing.experts.size(); ++k)
    std::cout << "  E" << routing.experts[k] << " (w="
              << util::format_double(routing.weights[k], 3) << ")";
  std::cout << "\n\n";

  // Schedule those experts with the hybrid scheduler (expert 0..3 "cached").
  const moe::ModelConfig model = moe::ModelConfig::tiny(1, kExperts, kTopK);
  const hw::CostModel costs(hw::Topology::unit_test(), model);
  std::vector<sched::ExpertDemand> demands;
  for (const auto e : routing.experts)
    demands.push_back({static_cast<std::uint16_t>(e), 1, e < kExperts / 2});
  const auto plan = sched::simulate_layer(0, sched::Stage::Decode, demands, costs);

  // Compute each device's partition separately, then recombine.
  std::vector<float> combined(kDModel, 0.0f);
  util::TextTable table("hybrid plan and per-device partial results");
  table.set_headers({"expert", "device", "weight", "|partial|"});
  for (const auto& task : plan.tasks) {
    // Find the routing weight of this expert.
    double weight = 0.0;
    for (std::size_t k = 0; k < routing.experts.size(); ++k)
      if (routing.experts[k] == task.expert.expert) weight = routing.weights[k];
    const auto partial = layer.expert_output(task.expert.expert, x);
    for (std::size_t i = 0; i < combined.size(); ++i)
      combined[i] += static_cast<float>(weight) * partial[i];
    table.begin_row()
        .add_cell(std::string("E").append(std::to_string(task.expert.expert)))
        .add_cell(task.device == sched::kCpuDevice ? "CPU" : "GPU")
        .add_cell(weight, 3)
        .add_cell(kernels::l2_norm(partial), 3);
  }
  // Shared expert runs on the GPU for every token.
  const moe::TokenRouting no_routed{};  // shared-only contribution
  const auto shared_only = layer.forward_with_routing(x, no_routed);
  for (std::size_t i = 0; i < combined.size(); ++i) combined[i] += shared_only[i];
  table.print(std::cout);

  const double err = kernels::max_abs_diff(reference, combined);
  std::cout << "\nmax |reference - scheduled-recombination| = " << err << '\n';
  if (err > 1e-5) {
    std::cout << "MISMATCH — offload partitioning changed the math!\n";
    return 1;
  }
  std::cout << "offload partitioning preserves the forward exactly.\n";

  // Quantized path.
  util::Rng qrng(123);
  const moe::MoeLayer qlayer(qrng, kExperts, kTopK, kDModel, kDff, 1, /*quantized=*/true);
  const auto qout = qlayer.forward(x);
  std::cout << "Q4 forward |y - y_fp32| max = "
            << kernels::max_abs_diff(qout, reference)
            << "  (expected small but non-zero: 4-bit weights)\n";
  return 0;
}
