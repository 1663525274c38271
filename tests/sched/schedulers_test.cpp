#include "sched/schedulers.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace hybrimoe::sched {
namespace {

class SchedulersTest : public ::testing::Test {
 protected:
  moe::ModelConfig model_ = moe::ModelConfig::tiny();
  hw::CostModel costs_{hw::MachineProfile::unit_test_machine(), model_};
  std::vector<ExpertDemand> demands_ = {
      {0, 1, false}, {1, 4, false}, {2, 2, true}, {3, 6, true}};
};

TEST_F(SchedulersTest, HybridProducesValidNamedPlans) {
  SimScheduler sched = SimScheduler::hybrid();
  EXPECT_EQ(sched.name(), "hybrid");
  const auto plan = sched.schedule(1, Stage::Decode, demands_, costs_);
  EXPECT_EQ(plan.layer, 1);
  EXPECT_TRUE(validate_plan(plan, demands_).empty());
}

TEST_F(SchedulersTest, FixedMapDecodeMissesOnCpuHitsOnGpu) {
  SimScheduler sched = SimScheduler::fixed_map();
  const auto plan = sched.schedule(0, Stage::Decode, demands_, costs_);
  EXPECT_TRUE(validate_plan(plan, demands_).empty());
  for (const auto& t : plan.tasks) {
    if (t.was_cached) {
      EXPECT_EQ(t.device, kGpuDevice) << t.expert.to_string();
    } else {
      EXPECT_EQ(t.device, kCpuDevice) << t.expert.to_string();
    }
    EXPECT_FALSE(t.transferred);
  }
}

TEST_F(SchedulersTest, FixedMapPrefillStreamsMissesNoCpu) {
  // Paper Table I: kTransformers uses the CPU only during decode.
  SimScheduler sched = SimScheduler::fixed_map();
  const auto plan = sched.schedule(0, Stage::Prefill, demands_, costs_);
  EXPECT_TRUE(validate_plan(plan, demands_).empty());
  for (const auto& t : plan.tasks) {
    EXPECT_EQ(t.device, kGpuDevice);
    EXPECT_EQ(t.transferred, !t.was_cached);
  }
}

TEST_F(SchedulersTest, GpuCentricNeverUsesCpu) {
  SimScheduler sched = SimScheduler::gpu_centric();
  for (const auto stage : {Stage::Prefill, Stage::Decode}) {
    const auto plan = sched.schedule(0, stage, demands_, costs_);
    EXPECT_TRUE(validate_plan(plan, demands_).empty());
    for (const auto& t : plan.tasks) EXPECT_EQ(t.device, kGpuDevice);
  }
}

TEST_F(SchedulersTest, StaticLayerAllOrNothing) {
  StaticLayerScheduler sched(model_.num_layers, 0.5);
  EXPECT_EQ(sched.num_gpu_layers(), model_.num_layers / 2);
  std::size_t gpu_layers = 0;
  for (std::uint16_t l = 0; l < model_.num_layers; ++l) {
    const auto plan = sched.schedule(l, Stage::Decode, demands_, costs_);
    const bool on_gpu = sched.is_gpu_layer(l);
    gpu_layers += on_gpu ? 1 : 0;
    for (const auto& t : plan.tasks) {
      EXPECT_EQ(t.device, on_gpu ? kGpuDevice : kCpuDevice);
      EXPECT_FALSE(t.transferred);  // static mapping never moves weights
    }
  }
  EXPECT_EQ(gpu_layers, sched.num_gpu_layers());
}

TEST_F(SchedulersTest, StaticLayerFractionBounds) {
  StaticLayerScheduler none(8, 0.0);
  EXPECT_EQ(none.num_gpu_layers(), 0U);
  EXPECT_FALSE(none.is_gpu_layer(0));
  StaticLayerScheduler all(8, 1.0);
  EXPECT_EQ(all.num_gpu_layers(), 8U);
  EXPECT_TRUE(all.is_gpu_layer(7));
  EXPECT_THROW(StaticLayerScheduler(0, 0.5), std::invalid_argument);
  EXPECT_THROW(StaticLayerScheduler(8, 1.5), std::invalid_argument);
}

TEST_F(SchedulersTest, StaticLayerSpreadIsEven) {
  StaticLayerScheduler sched(10, 0.3);
  std::vector<std::uint16_t> gpu_layers;
  for (std::uint16_t l = 0; l < 10; ++l)
    if (sched.is_gpu_layer(l)) gpu_layers.push_back(l);
  ASSERT_EQ(gpu_layers.size(), 3U);
  // No two adjacent GPU layers when only 30% are mapped.
  for (std::size_t i = 1; i < gpu_layers.size(); ++i)
    EXPECT_GT(gpu_layers[i] - gpu_layers[i - 1], 1);
}

TEST_F(SchedulersTest, GpuBusyUntilThreadsThrough) {
  SimScheduler hybrid = SimScheduler::hybrid();
  const auto plan = hybrid.schedule(0, Stage::Decode, demands_, costs_, 5.0, 1.0);
  EXPECT_DOUBLE_EQ(plan.gpu_offset, 5.0);
  ASSERT_EQ(plan.link_offsets.size(), 1U);
  EXPECT_DOUBLE_EQ(plan.link_offsets[0], 1.0);
  EXPECT_GE(plan.makespan, 5.0);
  for (const auto& t : plan.tasks) {
    if (t.device == kGpuDevice) {
      EXPECT_GE(t.start, 5.0);
    }
  }
}

TEST_F(SchedulersTest, ImpactOptionsMatchSchedulerBehaviour) {
  SimScheduler hybrid = SimScheduler::hybrid();
  EXPECT_TRUE(hybrid.impact_options().allow_transfers);
  SimScheduler gpu = SimScheduler::gpu_centric();
  EXPECT_FALSE(gpu.impact_options().allow_cpu);
  SimScheduler fixed = SimScheduler::fixed_map();
  EXPECT_FALSE(fixed.impact_options().allow_transfers);
}

TEST_F(SchedulersTest, SchedulersAgreeOnFullyCachedLayer) {
  // With everything cached, every scheduler (except llama.cpp CPU layers)
  // computes everything on the GPU with identical makespans.
  const std::vector<ExpertDemand> cached = {{0, 2, true}, {1, 3, true}};
  SimScheduler hybrid = SimScheduler::hybrid();
  SimScheduler fixed = SimScheduler::fixed_map();
  SimScheduler gpu = SimScheduler::gpu_centric();
  SimOptions no_steal;
  no_steal.allow_cpu_steal = false;
  SimScheduler hybrid_no_steal = SimScheduler::hybrid(no_steal);
  const double m_fixed = fixed.schedule(0, Stage::Decode, cached, costs_).makespan;
  const double m_gpu = gpu.schedule(0, Stage::Decode, cached, costs_).makespan;
  const double m_hybrid_ns =
      hybrid_no_steal.schedule(0, Stage::Decode, cached, costs_).makespan;
  EXPECT_DOUBLE_EQ(m_fixed, m_gpu);
  EXPECT_DOUBLE_EQ(m_fixed, m_hybrid_ns);
  // Full hybrid may steal one expert for the CPU and finish no later.
  EXPECT_LE(hybrid.schedule(0, Stage::Decode, cached, costs_).makespan,
            m_fixed + 1e-9);
}

}  // namespace
}  // namespace hybrimoe::sched
