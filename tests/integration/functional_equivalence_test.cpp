#include <gtest/gtest.h>

#include "hw/cost_model.hpp"
#include "kernels/ops.hpp"
#include "moe/moe_layer.hpp"
#include "sched/simulator.hpp"
#include "util/rng.hpp"

/// Functional equivalence: whatever partition a scheduler chooses, executing
/// the experts per that partition and recombining must reproduce the
/// reference single-device forward bit-for-bit (fp32) — scheduling decides
/// *where*, never *what*.

namespace hybrimoe {
namespace {

std::vector<float> random_input(util::Rng& rng, std::size_t dim) {
  std::vector<float> x(dim);
  for (float& v : x) v = static_cast<float>(rng.gaussian());
  return x;
}

/// Execute a plan against a functional layer: each task contributes its
/// expert's weighted output regardless of assigned device.
std::vector<float> execute_plan(const moe::MoeLayer& layer,
                                const sched::LayerPlan& plan,
                                const moe::TokenRouting& routing,
                                std::span<const float> x) {
  std::vector<float> y(x.size(), 0.0f);
  for (const auto& task : plan.tasks) {
    double weight = 0.0;
    for (std::size_t k = 0; k < routing.experts.size(); ++k)
      if (routing.experts[k] == task.expert.expert) weight = routing.weights[k];
    const auto out = layer.expert_output(task.expert.expert, x);
    for (std::size_t i = 0; i < y.size(); ++i)
      y[i] += static_cast<float>(weight) * out[i];
  }
  // Shared experts always execute on the GPU.
  const auto shared = layer.forward_with_routing(x, moe::TokenRouting{});
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += shared[i];
  return y;
}

class FunctionalEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FunctionalEquivalenceTest, SchedulerPartitionPreservesForward) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed);
  constexpr std::size_t kExperts = 8;
  constexpr std::size_t kTopK = 3;
  constexpr std::size_t kDModel = 24;
  const moe::MoeLayer layer(rng, kExperts, kTopK, kDModel, 48, /*num_shared=*/1);
  const auto x = random_input(rng, kDModel);

  const auto routing = layer.route(x);
  const auto reference = layer.forward(x);

  const moe::ModelConfig model = moe::ModelConfig::tiny(1, kExperts, kTopK);
  const hw::CostModel costs(hw::Topology::unit_test(), model);

  // Random cached subset; try every scheduling option set.
  std::vector<sched::ExpertDemand> demands;
  for (const auto e : routing.experts)
    demands.push_back({static_cast<std::uint16_t>(e), 1, rng.bernoulli(0.5)});

  const sched::SimOptions option_sets[] = {
      {},                                                        // hybrid
      {.allow_transfers = false, .allow_cpu_steal = false},      // fixed map
      {.allow_cpu = false, .transfer_only_if_beneficial = false} // gpu centric
  };
  for (const auto& options : option_sets) {
    const auto plan = sched::simulate_layer(0, sched::Stage::Decode, demands,
                                            costs, options);
    ASSERT_TRUE(validate_plan(plan, demands).empty());
    const auto combined = execute_plan(layer, plan, routing, x);
    EXPECT_LT(kernels::max_abs_diff(reference, combined), 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FunctionalEquivalenceTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(FunctionalQuantizedTest, QuantizedPartitionMatchesQuantizedReference) {
  util::Rng rng(99);
  const moe::MoeLayer layer(rng, 8, 2, 32, 64, 1, /*quantized=*/true);
  const auto x = random_input(rng, 32);
  const auto routing = layer.route(x);
  const auto reference = layer.forward(x);

  const moe::ModelConfig model = moe::ModelConfig::tiny(1, 8, 2);
  const hw::CostModel costs(hw::Topology::unit_test(), model);
  std::vector<sched::ExpertDemand> demands;
  for (const auto e : routing.experts)
    demands.push_back({static_cast<std::uint16_t>(e), 1, e % 2 == 0});
  const auto plan = sched::simulate_layer(0, sched::Stage::Decode, demands, costs);
  const auto combined = execute_plan(layer, plan, routing, x);
  // Quantized path is still deterministic: same kernels on both "devices".
  EXPECT_LT(kernels::max_abs_diff(reference, combined), 1e-5);
}

}  // namespace
}  // namespace hybrimoe
