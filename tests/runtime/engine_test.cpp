#include "runtime/engine.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "cache/classic_policies.hpp"
#include "cache/mrs_policy.hpp"
#include "workload/generator.hpp"

namespace hybrimoe::runtime {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : model_(moe::ModelConfig::tiny(4, 8, 2)),
        costs_(hw::MachineProfile::unit_test_machine(), model_) {}

  EngineComponents hybrid_components(std::size_t capacity) {
    EngineComponents c;
    c.name = "test-hybrid";
    c.scheduler = std::make_unique<sched::SimScheduler>(sched::SimScheduler::hybrid());
    c.caches.push_back(std::make_unique<cache::ExpertCache>(
        capacity, std::make_unique<cache::MrsPolicy>()));
    c.prefetcher = std::make_unique<core::ImpactDrivenPrefetcher>();
    c.dynamic_cache_inserts = true;
    c.update_policy_scores = true;
    c.cache_maintenance = true;
    return c;
  }

  workload::DecodeTrace decode_trace(std::size_t steps, std::uint64_t seed = 71) {
    workload::TraceGenParams params;
    params.seed = seed;
    workload::TraceGenerator gen(model_, params);
    return gen.generate_decode(steps);
  }

  workload::PrefillTrace prefill_trace(std::size_t tokens, std::uint64_t seed = 72) {
    workload::TraceGenParams params;
    params.seed = seed;
    workload::TraceGenerator gen(model_, params);
    return gen.generate_prefill(tokens);
  }

  moe::ModelConfig model_;
  hw::CostModel costs_;
};

TEST_F(EngineTest, RequiresComponents) {
  EngineComponents missing_sched;
  missing_sched.name = "x";
  missing_sched.caches.push_back(
      std::make_unique<cache::ExpertCache>(1, std::make_unique<cache::LruPolicy>()));
  EXPECT_THROW(OffloadEngine(std::move(missing_sched), costs_), std::invalid_argument);

  EngineComponents missing_cache;
  missing_cache.name = "x";
  missing_cache.scheduler = std::make_unique<sched::SimScheduler>(sched::SimScheduler::hybrid());
  EXPECT_THROW(OffloadEngine(std::move(missing_cache), costs_), std::invalid_argument);
}

TEST_F(EngineTest, DecodeMetricsConsistency) {
  OffloadEngine engine(hybrid_components(8), costs_);
  const auto trace = decode_trace(6);
  const auto metrics = engine.run_decode(trace);

  EXPECT_EQ(metrics.stage, sched::Stage::Decode);
  EXPECT_EQ(metrics.tokens, 6U);
  ASSERT_EQ(metrics.per_forward.size(), 6U);
  double sum = 0.0;
  for (const double t : metrics.per_forward) {
    EXPECT_GT(t, 0.0);
    sum += t;
  }
  EXPECT_NEAR(sum, metrics.total_latency, 1e-9);
  EXPECT_NEAR(metrics.tbt_mean(), metrics.total_latency / 6.0, 1e-12);
  // Every activated expert produced exactly one lookup.
  std::size_t lookups = 0;
  for (const auto& step : trace.steps)
    for (const auto& layer : step.layers) lookups += layer.activated_count();
  EXPECT_EQ(metrics.cache.hits + metrics.cache.misses, lookups);
  // Busy time cannot exceed wall time per resource.
  EXPECT_LE(metrics.cpu_busy, metrics.total_latency + 1e-9);
  EXPECT_LE(metrics.gpu_busy, metrics.total_latency + 1e-9);
}

TEST_F(EngineTest, PrefillMetricsConsistency) {
  OffloadEngine engine(hybrid_components(8), costs_);
  const auto trace = prefill_trace(16);
  const auto metrics = engine.run_prefill(trace);
  EXPECT_EQ(metrics.stage, sched::Stage::Prefill);
  EXPECT_EQ(metrics.tokens, 16U);
  EXPECT_EQ(metrics.per_forward.size(), 1U);
  EXPECT_DOUBLE_EQ(metrics.ttft(), metrics.total_latency);
  EXPECT_GT(metrics.moe_time, 0.0);
}

TEST_F(EngineTest, SeedCacheRespectsCapacityAndPinning) {
  OffloadEngine engine(hybrid_components(3), costs_);
  const std::vector<moe::ExpertId> seeds = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  engine.seed_cache(seeds, /*pinned=*/true);
  EXPECT_EQ(engine.device_cache(0).size(), 3U);
  EXPECT_TRUE(engine.device_cache(0).is_pinned({0, 0}));
  EXPECT_FALSE(engine.device_cache(0).contains({1, 1}));
}

TEST_F(EngineTest, StaticCacheStaysStatic) {
  // kTransformers-style configuration: no dynamic inserts.
  EngineComponents c;
  c.name = "static";
  c.scheduler = std::make_unique<sched::SimScheduler>(sched::SimScheduler::fixed_map());
  c.caches.push_back(
      std::make_unique<cache::ExpertCache>(4, std::make_unique<cache::LfuPolicy>()));
  c.dynamic_cache_inserts = false;
  c.update_policy_scores = false;
  OffloadEngine engine(std::move(c), costs_);
  const std::vector<moe::ExpertId> seeds = {{0, 0}, {1, 1}, {2, 2}, {3, 3}};
  engine.seed_cache(seeds, true);
  const auto before = engine.device_cache(0).residents();
  (void)engine.run_decode(decode_trace(8));
  EXPECT_EQ(engine.device_cache(0).residents(), before);
}

TEST_F(EngineTest, DynamicDecodeInsertsGrowCache) {
  OffloadEngine engine(hybrid_components(8), costs_);
  EXPECT_EQ(engine.device_cache(0).size(), 0U);
  const auto metrics = engine.run_decode(decode_trace(8));
  EXPECT_GT(engine.device_cache(0).size(), 0U);
  EXPECT_GT(metrics.transfers + metrics.maintenance + metrics.prefetches, 0U);
}

TEST_F(EngineTest, PrefillDoesNotMutateCacheContents) {
  OffloadEngine engine(hybrid_components(6), costs_);
  const std::vector<moe::ExpertId> seeds = {{0, 0}, {1, 1}, {2, 2}};
  engine.seed_cache(seeds, false);
  const auto before = engine.device_cache(0).residents();
  (void)engine.run_prefill(prefill_trace(12));
  EXPECT_EQ(engine.device_cache(0).residents(), before);  // transient buffers only
}

TEST_F(EngineTest, ZeroCapacityCacheStillRuns) {
  // llama.cpp-style: 0-capacity cache, static layer scheduler.
  EngineComponents c;
  c.name = "llama";
  c.scheduler = std::make_unique<sched::StaticLayerScheduler>(model_.num_layers, 0.5);
  c.caches.push_back(
      std::make_unique<cache::ExpertCache>(0, std::make_unique<cache::LruPolicy>()));
  c.dynamic_cache_inserts = false;
  c.update_policy_scores = false;
  OffloadEngine engine(std::move(c), costs_);
  const auto metrics = engine.run_decode(decode_trace(4));
  EXPECT_GT(metrics.total_latency, 0.0);
  EXPECT_EQ(metrics.cache.hits, 0U);
}

TEST_F(EngineTest, PerLayerOverheadAddsUp) {
  auto with = hybrid_components(8);
  with.per_layer_overhead = 0.25;
  with.prefetcher = nullptr;  // keep runs otherwise identical
  with.cache_maintenance = false;
  auto without = hybrid_components(8);
  without.per_layer_overhead = 0.0;
  without.prefetcher = nullptr;
  without.cache_maintenance = false;
  OffloadEngine a(std::move(with), costs_);
  OffloadEngine b(std::move(without), costs_);
  const auto trace = decode_trace(2);
  const double da = a.run_decode(trace).total_latency;
  const double db = b.run_decode(trace).total_latency;
  // 2 steps x 4 layers x 0.25s.
  EXPECT_NEAR(da - db, 2.0, 1e-6);
}

TEST_F(EngineTest, TraceModelMismatchThrows) {
  OffloadEngine engine(hybrid_components(4), costs_);
  workload::TraceGenParams params;
  const auto other_model = moe::ModelConfig::tiny(7, 8, 2);  // different layers
  workload::TraceGenerator gen(other_model, params);
  const auto trace = gen.generate_decode(1);
  EXPECT_THROW((void)engine.run_decode(trace), std::invalid_argument);
}

TEST_F(EngineTest, DeterministicAcrossRuns) {
  const auto trace = decode_trace(5);
  OffloadEngine a(hybrid_components(8), costs_);
  OffloadEngine b(hybrid_components(8), costs_);
  const auto ma = a.run_decode(trace);
  const auto mb = b.run_decode(trace);
  EXPECT_DOUBLE_EQ(ma.total_latency, mb.total_latency);
  EXPECT_EQ(ma.cache.hits, mb.cache.hits);
  EXPECT_EQ(ma.prefetches, mb.prefetches);
}

}  // namespace
}  // namespace hybrimoe::runtime
