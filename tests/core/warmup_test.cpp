#include "core/warmup.hpp"

#include <gtest/gtest.h>

namespace hybrimoe::core {
namespace {

TEST(HottestExpertsTest, OrdersByFrequencyWithDeterministicTies) {
  const std::vector<std::vector<double>> freq = {
      {5.0, 1.0, 3.0},
      {3.0, 7.0, 0.0},
  };
  const auto hottest = hottest_experts(freq, 3);
  ASSERT_EQ(hottest.size(), 3U);
  EXPECT_EQ(hottest[0], (moe::ExpertId{1, 1}));  // 7
  EXPECT_EQ(hottest[1], (moe::ExpertId{0, 0}));  // 5
  // Tie at 3.0 between (0,2) and (1,0): lower id first.
  EXPECT_EQ(hottest[2], (moe::ExpertId{0, 2}));
}

TEST(HottestExpertsTest, CountClamped) {
  const std::vector<std::vector<double>> freq = {{1.0, 2.0}};
  EXPECT_EQ(hottest_experts(freq, 10).size(), 2U);
  EXPECT_TRUE(hottest_experts(freq, 0).empty());
  EXPECT_TRUE(hottest_experts({}, 5).empty());
}

TEST(RunWarmupTest, ProducesCalibratedProfileAndFrequencies) {
  const auto model = moe::ModelConfig::deepseek();
  const hw::CostModel truth(hw::MachineProfile::a6000_xeon10(), model);
  workload::TraceGenParams params;
  params.seed = 55;
  workload::TraceGenerator generator(model, params);
  util::Rng rng(56);

  const auto result = run_warmup(truth, generator, 16, rng, 0.02);
  EXPECT_NO_THROW(result.fitted_machine.validate());
  ASSERT_EQ(result.expert_frequencies.size(), model.num_layers);

  // The fitted machine reproduces the ground-truth timings within tolerance.
  const hw::CostModel fitted(result.fitted_machine, model);
  EXPECT_NEAR(fitted.transfer_time(0), truth.transfer_time(0),
              truth.transfer_time(0) * 0.15);
  EXPECT_NEAR(fitted.cpu_expert_time(128), truth.cpu_expert_time(128),
              truth.cpu_expert_time(128) * 0.25);

  // Frequencies cover 16 steps x top_k activations per layer.
  for (const auto& layer : result.expert_frequencies) {
    double total = 0.0;
    for (const double f : layer) total += f;
    EXPECT_DOUBLE_EQ(total, 16.0 * static_cast<double>(model.top_k));
  }
}

TEST(RunWarmupTest, RejectsZeroSteps) {
  const auto model = moe::ModelConfig::tiny();
  const hw::CostModel truth(hw::MachineProfile::unit_test_machine(), model);
  workload::TraceGenParams params;
  workload::TraceGenerator generator(model, params);
  util::Rng rng(1);
  EXPECT_THROW((void)run_warmup(truth, generator, 0, rng), std::invalid_argument);
}

}  // namespace
}  // namespace hybrimoe::core
