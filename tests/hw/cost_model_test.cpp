#include "hw/cost_model.hpp"

#include <gtest/gtest.h>

#include <string>

#include "runtime/stack_registry.hpp"

namespace hybrimoe::hw {
namespace {

class CostModelTest : public ::testing::Test {
 protected:
  moe::ModelConfig model_ = moe::ModelConfig::deepseek();
  CostModel costs_{Topology::a6000_xeon10(), model_};
};

TEST_F(CostModelTest, ProfilesValidate) {
  auto& presets = runtime::topology_registry();
  ASSERT_FALSE(presets.names().empty());
  for (const std::string& name : presets.names())
    EXPECT_NO_THROW(presets.get(name)().validate()) << name;
}

TEST_F(CostModelTest, GpuFlatCpuLinear_Fig3f) {
  // Paper Fig. 3(f): GPU per-expert time stays near-flat across decode-scale
  // loads and grows sub-linearly overall; CPU grows near-linearly.
  const double gpu1 = costs_.gpu_expert_time(1, 0);
  const double gpu64 = costs_.gpu_expert_time(64, 0);
  const double gpu512 = costs_.gpu_expert_time(512, 0);
  EXPECT_LT(gpu64, gpu1 * 1.6);   // flat through typical decode loads
  EXPECT_LT(gpu512, gpu1 * 6.0);  // sub-linear even at 512x the tokens

  const double cpu64 = costs_.cpu_expert_time(64);
  const double cpu512 = costs_.cpu_expert_time(512);
  EXPECT_GT(cpu512, cpu64 * 6.0);  // near-linear: 8x tokens -> >6x time
  // The asymmetry hybrid scheduling exploits: CPU grows much faster.
  EXPECT_GT(cpu512 / cpu64, 1.5 * (gpu512 / gpu64));
}

TEST_F(CostModelTest, CpuWarmupPenalty_Fig3e) {
  const double cold = costs_.cpu_expert_time(1, /*warm=*/false);
  const double warm = costs_.cpu_expert_time(1, /*warm=*/true);
  EXPECT_GT(cold, warm);
  EXPECT_NEAR(cold - warm, costs_.topology().cpu.warmup_penalty, 1e-12);
}

TEST_F(CostModelTest, DecodeRegime) {
  // Single-token decode on DeepSeek-sized experts: CPU compute beats an
  // on-demand transfer, GPU-cached beats both — the premise of hybrid
  // execution (paper Fig. 1).
  const double cpu = costs_.cpu_expert_time(1);
  const double gpu = costs_.gpu_expert_time(1, 0);
  const double xfer = costs_.transfer_time(0);
  EXPECT_LT(gpu, cpu);
  EXPECT_LT(cpu, xfer);
}

TEST_F(CostModelTest, PrefillRegime) {
  // At high loads the GPU route (transfer + compute) beats the CPU — the
  // reason prefill streams misses instead of computing them locally.
  const std::size_t load = 256;
  const double cpu = costs_.cpu_expert_time(load);
  const double via_gpu = costs_.transfer_time(0) + costs_.gpu_expert_time(load, 0);
  EXPECT_LT(via_gpu, cpu);
}

TEST_F(CostModelTest, TransferConstantPerExpert) {
  const TransferLinkParams& link = costs_.topology().accelerators[0].link;
  const double expected =
      link.latency + static_cast<double>(model_.routed_expert_bytes()) / link.bandwidth;
  EXPECT_DOUBLE_EQ(costs_.transfer_time(0), expected);
}

TEST_F(CostModelTest, MonotoneInTokens) {
  double prev_cpu = 0.0;
  double prev_gpu = 0.0;
  for (const std::size_t t : {1UL, 2UL, 8UL, 64UL, 256UL, 1024UL}) {
    const double cpu = costs_.cpu_expert_time(t);
    const double gpu = costs_.gpu_expert_time(t, 0);
    EXPECT_GE(cpu, prev_cpu);
    EXPECT_GE(gpu, prev_gpu);
    prev_cpu = cpu;
    prev_gpu = gpu;
  }
}

TEST_F(CostModelTest, SharedExpertsScaleWithCount) {
  const CostModel mixtral(Topology::a6000_xeon10(), moe::ModelConfig::mixtral());
  EXPECT_EQ(mixtral.shared_experts_time(8), 0.0);  // no shared experts
  const CostModel deepseek(Topology::a6000_xeon10(), moe::ModelConfig::deepseek());
  EXPECT_GT(deepseek.shared_experts_time(8), 0.0);
}

TEST_F(CostModelTest, AttentionGrowsWithTokens) {
  EXPECT_GT(costs_.attention_time(1024), costs_.attention_time(1));
}

TEST_F(CostModelTest, RejectsZeroTokens) {
  EXPECT_THROW((void)costs_.cpu_expert_time(0), std::invalid_argument);
  EXPECT_THROW((void)costs_.gpu_expert_time(0, 0), std::invalid_argument);
  EXPECT_THROW((void)costs_.attention_time(0), std::invalid_argument);
}

TEST_F(CostModelTest, GemmRampMonotoneAndBounded) {
  const auto& cpu = costs_.topology().cpu;
  EXPECT_DOUBLE_EQ(cpu.effective_flops(0), cpu.flops);
  double prev = 0.0;
  for (const std::size_t t : {1UL, 4UL, 16UL, 64UL, 1024UL}) {
    const double f = cpu.effective_flops(t);
    EXPECT_GE(f, prev);
    EXPECT_LE(f, cpu.flops_peak);
    prev = f;
  }
  // Half the headroom at flops_ramp_half tokens.
  const double at_half =
      cpu.effective_flops(static_cast<std::size_t>(cpu.flops_ramp_half));
  EXPECT_NEAR(at_half, cpu.flops + (cpu.flops_peak - cpu.flops) * 0.5,
              (cpu.flops_peak - cpu.flops) * 0.01);
}

TEST_F(CostModelTest, UnitMachineRatios) {
  // The unit machine promises: cpu == load units, gpu == 1, transfer == 3,
  // for ModelConfig::tiny().
  const CostModel unit(Topology::unit_test(), moe::ModelConfig::tiny());
  EXPECT_NEAR(unit.cpu_expert_time(1), 1.0, 1e-9);
  EXPECT_NEAR(unit.cpu_expert_time(4), 4.0, 1e-9);
  EXPECT_NEAR(unit.gpu_expert_time(1, 0), 1.0, 1e-9);
  EXPECT_NEAR(unit.gpu_expert_time(7, 0), 1.0, 1e-9);  // flat
  EXPECT_NEAR(unit.transfer_time(0), 3.0, 1e-9);
}

TEST_F(CostModelTest, InvalidMachineRejected) {
  Topology bad = Topology::a6000_xeon10();
  bad.cpu.flops = 0.0;
  EXPECT_THROW(CostModel(bad, model_), std::invalid_argument);
  bad = Topology::a6000_xeon10();
  bad.accelerators[0].link.bandwidth = -1.0;
  EXPECT_THROW(CostModel(bad, model_), std::invalid_argument);
  bad = Topology::a6000_xeon10();
  bad.accelerators.clear();
  EXPECT_THROW(CostModel(bad, model_), std::invalid_argument);
}

/// Expert size ordering drives model-dependent regimes; sweep all models.
class ModelRegimeTest : public ::testing::TestWithParam<int> {};

TEST_P(ModelRegimeTest, TransferCostScalesWithExpertBytes) {
  const auto& model = moe::paper_models()[static_cast<std::size_t>(GetParam())];
  const CostModel costs(Topology::a6000_xeon10(), model);
  const TransferLinkParams& link = costs.topology().accelerators[0].link;
  const double expected =
      link.latency + static_cast<double>(model.routed_expert_bytes()) / link.bandwidth;
  EXPECT_DOUBLE_EQ(costs.transfer_time(0), expected);
  // Decode: cached GPU compute is always the cheapest option.
  EXPECT_LT(costs.gpu_expert_time(1, 0), costs.cpu_expert_time(1));
  EXPECT_LT(costs.gpu_expert_time(1, 0), costs.transfer_time(0));
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelRegimeTest, ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace hybrimoe::hw
