#include "runtime/frameworks.hpp"

#include <gtest/gtest.h>

#include "runtime/session.hpp"

namespace hybrimoe::runtime {
namespace {

class FrameworksTest : public ::testing::Test {
 protected:
  FrameworksTest()
      : model_(moe::ModelConfig::tiny(4, 8, 2)),
        costs_(hw::Topology::unit_test(), model_) {
    info_.cache_ratio = 0.25;
    // Simple warmup frequencies: expert e of layer l has frequency e.
    info_.warmup_frequencies.assign(model_.num_layers,
                                    std::vector<double>(model_.num_routed_experts));
    for (auto& layer : info_.warmup_frequencies)
      for (std::size_t e = 0; e < layer.size(); ++e)
        layer[e] = static_cast<double>(e);
  }

  moe::ModelConfig model_;
  hw::CostModel costs_;
  EngineBuildInfo info_;
};

TEST_F(FrameworksTest, NamesAndPaperSet) {
  EXPECT_STREQ(to_string(Framework::HybriMoE), "HybriMoE");
  EXPECT_STREQ(to_string(Framework::KTransformers), "KTransformers");
  EXPECT_STREQ(to_string(Framework::AdapMoE), "AdapMoE");
  EXPECT_STREQ(to_string(Framework::LlamaCpp), "llama.cpp");
  EXPECT_STREQ(to_string(Framework::OnDemand), "OnDemand");
  EXPECT_EQ(kPaperFrameworks.size(), 4U);
  EXPECT_EQ(kPaperFrameworks.back(), Framework::HybriMoE);
}

TEST_F(FrameworksTest, AllFrameworksBuildAndRun) {
  workload::TraceGenParams params;
  params.seed = 81;
  workload::TraceGenerator gen(model_, params);
  const auto decode = gen.generate_decode(4);
  const auto prefill = gen.generate_prefill(8);
  for (const auto fw : {Framework::LlamaCpp, Framework::AdapMoE,
                        Framework::KTransformers, Framework::HybriMoE,
                        Framework::OnDemand}) {
    auto engine = make_engine(preset_spec(fw), costs_, info_);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), to_string(fw));
    EXPECT_GT(engine->run_decode(decode).total_latency, 0.0);
    EXPECT_GT(engine->run_prefill(prefill).ttft(), 0.0);
  }
}

TEST_F(FrameworksTest, KTransformersSeedsPinnedHotExperts) {
  auto engine = make_engine(preset_spec(Framework::KTransformers), costs_, info_);
  // Capacity = 25% of 4*8 = 8; the hottest experts are e=7 of each layer etc.
  EXPECT_EQ(engine->device_cache(0).size(), 8U);
  EXPECT_TRUE(engine->device_cache(0).contains({0, 7}));
  EXPECT_TRUE(engine->device_cache(0).is_pinned({0, 7}));
}

TEST_F(FrameworksTest, HybriMoESeedsUnpinned) {
  auto engine = make_engine(preset_spec(Framework::HybriMoE), costs_, info_);
  EXPECT_EQ(engine->device_cache(0).size(), 8U);
  EXPECT_TRUE(engine->device_cache(0).contains({0, 7}));
  EXPECT_FALSE(engine->device_cache(0).is_pinned({0, 7}));
}

TEST_F(FrameworksTest, LlamaCppHasNoCache) {
  auto engine = make_engine(preset_spec(Framework::LlamaCpp), costs_, info_);
  EXPECT_EQ(engine->device_cache(0).capacity(), 0U);
}

TEST_F(FrameworksTest, AblationLabels) {
  EXPECT_EQ(core::HybriMoeConfig::baseline().label(), "Baseline");
  EXPECT_EQ(core::HybriMoeConfig::scheduling_only().label(), "Baseline+Scheduling");
  EXPECT_EQ(core::HybriMoeConfig::prefetching_only().label(), "Baseline+Prefetching");
  EXPECT_EQ(core::HybriMoeConfig::caching_only().label(), "Baseline+Caching");
  EXPECT_EQ(core::HybriMoeConfig::full().label(), "All");
}

TEST_F(FrameworksTest, AblationEnginesBuildAndRun) {
  workload::TraceGenParams params;
  params.seed = 82;
  workload::TraceGenerator gen(model_, params);
  const auto decode = gen.generate_decode(4);
  for (const auto& config :
       {core::HybriMoeConfig::baseline(), core::HybriMoeConfig::scheduling_only(),
        core::HybriMoeConfig::prefetching_only(), core::HybriMoeConfig::caching_only(),
        core::HybriMoeConfig::full()}) {
    auto engine = make_engine(ablation_spec(config), costs_, info_);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), config.label());
    EXPECT_GT(engine->run_decode(decode).total_latency, 0.0);
  }
}

TEST_F(FrameworksTest, BaselineAblationEqualsKTransformersPolicy) {
  // The ablation baseline should behave like the kTransformers engine up to
  // the per-layer overhead constant (the ablation pins overhead at the
  // baseline level for every variant).
  workload::TraceGenParams params;
  params.seed = 83;
  workload::TraceGenerator gen(model_, params);
  const auto decode = gen.generate_decode(6);
  auto ktrans = make_engine(preset_spec(Framework::KTransformers), costs_, info_);
  auto baseline =
      make_engine(ablation_spec(core::HybriMoeConfig::baseline()), costs_, info_);
  const auto mk = ktrans->run_decode(decode);
  const auto mb = baseline->run_decode(decode);
  EXPECT_NEAR(mk.total_latency, mb.total_latency, 1e-9);
  EXPECT_EQ(mk.cache.hits, mb.cache.hits);
}

TEST_F(FrameworksTest, EmptyWarmupFrequenciesHandled) {
  EngineBuildInfo no_warmup;
  no_warmup.cache_ratio = 0.25;
  auto engine = make_engine(preset_spec(Framework::HybriMoE), costs_, no_warmup);
  EXPECT_EQ(engine->device_cache(0).size(), 0U);  // nothing seeded
  workload::TraceGenParams params;
  workload::TraceGenerator gen(model_, params);
  EXPECT_GT(engine->run_decode(gen.generate_decode(2)).total_latency, 0.0);
}

}  // namespace
}  // namespace hybrimoe::runtime
