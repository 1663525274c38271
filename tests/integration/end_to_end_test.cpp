#include <gtest/gtest.h>

#include "runtime/session.hpp"

/// End-to-end integration on the real paper models (small step counts to
/// stay fast): every framework completes both stages, metrics are coherent,
/// and the engines interact with cache/prefetch machinery as designed.

namespace hybrimoe::runtime {
namespace {

ExperimentSpec spec_for(const moe::ModelConfig& model, double ratio,
                        std::uint64_t seed = 1001) {
  ExperimentSpec spec;
  spec.model = model;
  spec.machine = hw::MachineProfile::a6000_xeon10();
  spec.cache_ratio = ratio;
  spec.trace.seed = seed;
  spec.warmup_steps = 16;
  return spec;
}

TEST(EndToEndTest, AllModelsAllFrameworksComplete) {
  for (const auto& model : moe::paper_models()) {
    ExperimentHarness harness(spec_for(model, 0.5));
    for (const auto fw : kPaperFrameworks) {
      const auto prefill = harness.run_prefill(preset_spec(fw), 32);
      const auto decode = harness.run_decode(preset_spec(fw), 8);
      EXPECT_GT(prefill.ttft(), 0.0) << model.name << " " << to_string(fw);
      EXPECT_GT(decode.tbt_mean(), 0.0) << model.name << " " << to_string(fw);
      EXPECT_LE(decode.cache.hit_rate(), 1.0);
    }
  }
}

TEST(EndToEndTest, HybriMoEUsesAllThreeMechanisms) {
  ExperimentHarness harness(spec_for(moe::ModelConfig::deepseek(), 0.25));
  const auto metrics = harness.run_decode(preset_spec(Framework::HybriMoE), 24);
  EXPECT_GT(metrics.prefetches, 0U);
  EXPECT_GT(metrics.maintenance, 0U);
  EXPECT_GT(metrics.cpu_busy, 0.0);
  EXPECT_GT(metrics.gpu_busy, 0.0);
  EXPECT_GT(metrics.pcie_busy, 0.0);
}

TEST(EndToEndTest, KTransformersNeverTouchesPcieInDecode) {
  ExperimentHarness harness(spec_for(moe::ModelConfig::deepseek(), 0.25));
  const auto metrics = harness.run_decode(preset_spec(Framework::KTransformers), 8);
  EXPECT_EQ(metrics.transfers, 0U);
  EXPECT_EQ(metrics.prefetches, 0U);
  EXPECT_EQ(metrics.maintenance, 0U);
  EXPECT_EQ(metrics.pcie_busy, 0.0);
}

TEST(EndToEndTest, AdapMoENeverUsesCpuForExperts) {
  ExperimentHarness harness(spec_for(moe::ModelConfig::deepseek(), 0.25));
  const auto metrics = harness.run_decode(preset_spec(Framework::AdapMoE), 8);
  EXPECT_EQ(metrics.cpu_busy, 0.0);
  EXPECT_GT(metrics.transfers, 0U);
}

TEST(EndToEndTest, LlamaCppBusySplitFollowsLayerMapping) {
  ExperimentHarness harness(spec_for(moe::ModelConfig::deepseek(), 0.5));
  const auto metrics = harness.run_decode(preset_spec(Framework::LlamaCpp), 8);
  EXPECT_GT(metrics.cpu_busy, 0.0);   // CPU layers
  EXPECT_GT(metrics.gpu_busy, 0.0);   // GPU layers + dense phases
  EXPECT_EQ(metrics.transfers, 0U);   // static mapping never moves weights
}

TEST(EndToEndTest, CacheRatioImprovesEveryCachingFramework) {
  for (const auto fw : {Framework::AdapMoE, Framework::KTransformers,
                        Framework::HybriMoE}) {
    ExperimentHarness low(spec_for(moe::ModelConfig::deepseek(), 0.25));
    ExperimentHarness high(spec_for(moe::ModelConfig::deepseek(), 0.75));
    const double tbt_low = low.run_decode(preset_spec(fw), 16).tbt_mean();
    const double tbt_high = high.run_decode(preset_spec(fw), 16).tbt_mean();
    EXPECT_LT(tbt_high, tbt_low) << to_string(fw);
  }
}

TEST(EndToEndTest, PrefillLatencyGrowsWithPromptLength) {
  ExperimentHarness harness(spec_for(moe::ModelConfig::qwen2(), 0.5));
  double prev = 0.0;
  for (const std::size_t tokens : {32UL, 128UL, 512UL}) {
    const double ttft =
        harness.run_prefill(preset_spec(Framework::HybriMoE), tokens).ttft();
    EXPECT_GT(ttft, prev);
    prev = ttft;
  }
}

TEST(EndToEndTest, MixtralHasNoSharedExpertTime) {
  ExperimentHarness harness(spec_for(moe::ModelConfig::mixtral(), 0.5));
  const auto metrics = harness.run_decode(preset_spec(Framework::HybriMoE), 4);
  EXPECT_EQ(metrics.shared_time, 0.0);
  ExperimentHarness ds(spec_for(moe::ModelConfig::deepseek(), 0.5));
  EXPECT_GT(ds.run_decode(preset_spec(Framework::HybriMoE), 4).shared_time, 0.0);
}

TEST(EndToEndTest, FailureInjectionExtremeRatios) {
  // Degenerate cache ratios must not crash any framework.
  for (const double ratio : {0.0, 1.0}) {
    ExperimentHarness harness(spec_for(moe::ModelConfig::deepseek(), ratio, 77));
    for (const auto fw : kPaperFrameworks) {
      EXPECT_GT(harness.run_decode(preset_spec(fw), 3).tbt_mean(), 0.0)
          << to_string(fw) << " ratio " << ratio;
    }
  }
}

TEST(EndToEndTest, FullyCachedDecodeHasAlmostNoMisses) {
  ExperimentHarness harness(spec_for(moe::ModelConfig::deepseek(), 1.0));
  const auto metrics = harness.run_decode(preset_spec(Framework::HybriMoE), 8);
  // Capacity covers every expert; after warmup seeding everything hits.
  EXPECT_GT(metrics.cache.hit_rate(), 0.95);
}

TEST(EndToEndTest, SingleLayerAndSingleStepEdgeCases) {
  ExperimentSpec spec;
  spec.model = moe::ModelConfig::tiny(1, 4, 1);
  spec.machine = hw::MachineProfile::unit_test_machine();
  spec.cache_ratio = 0.5;
  spec.trace.seed = 5;
  spec.warmup_steps = 2;
  ExperimentHarness harness(spec);
  for (const auto fw : kPaperFrameworks) {
    EXPECT_GT(harness.run_decode(preset_spec(fw), 1).tbt_mean(), 0.0) << to_string(fw);
    EXPECT_GT(harness.run_prefill(preset_spec(fw), 1).ttft(), 0.0) << to_string(fw);
  }
}

}  // namespace
}  // namespace hybrimoe::runtime
