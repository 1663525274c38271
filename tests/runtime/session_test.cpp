#include "runtime/session.hpp"

#include <gtest/gtest.h>

namespace hybrimoe::runtime {
namespace {

ExperimentSpec tiny_spec(std::uint64_t seed = 91) {
  ExperimentSpec spec;
  spec.model = moe::ModelConfig::tiny(4, 8, 2);
  spec.machine = hw::Topology::unit_test();
  spec.cache_ratio = 0.25;
  spec.trace.seed = seed;
  spec.warmup_steps = 8;
  return spec;
}

TEST(SessionTest, TracesAreSharedAcrossFrameworks) {
  ExperimentHarness harness(tiny_spec());
  const auto& t1 = harness.decode_trace(4);
  const auto& t2 = harness.decode_trace(4);
  EXPECT_EQ(&t1, &t2);  // cached, literally the same object
  const auto& p1 = harness.prefill_trace(8);
  const auto& p2 = harness.prefill_trace(8);
  EXPECT_EQ(&p1, &p2);
}

TEST(SessionTest, DeterministicAcrossHarnesses) {
  ExperimentHarness a(tiny_spec());
  ExperimentHarness b(tiny_spec());
  const auto ma = a.run_decode(preset_spec(Framework::HybriMoE), 4);
  const auto mb = b.run_decode(preset_spec(Framework::HybriMoE), 4);
  EXPECT_DOUBLE_EQ(ma.total_latency, mb.total_latency);
  EXPECT_EQ(ma.cache.hits, mb.cache.hits);
}

TEST(SessionTest, DifferentSeedsDifferentTraces) {
  ExperimentHarness a(tiny_spec(1));
  ExperimentHarness b(tiny_spec(2));
  const auto ma = a.run_decode(preset_spec(Framework::KTransformers), 6);
  const auto mb = b.run_decode(preset_spec(Framework::KTransformers), 6);
  EXPECT_NE(ma.total_latency, mb.total_latency);
}

TEST(SessionTest, WarmupFrequenciesIndependentOfEvaluationTrace) {
  ExperimentHarness harness(tiny_spec());
  const auto& freq = harness.warmup_frequencies();
  ASSERT_EQ(freq.size(), 4U);
  double total = 0.0;
  for (const auto& layer : freq)
    for (const double f : layer) total += f;
  // 8 warmup steps x 4 layers x top-2.
  EXPECT_DOUBLE_EQ(total, 8.0 * 4.0 * 2.0);
}

TEST(SessionTest, RunsEveryFrameworkAndConfig) {
  ExperimentHarness harness(tiny_spec());
  for (const auto fw : kPaperFrameworks) {
    EXPECT_GT(harness.run_prefill(preset_spec(fw), 8).ttft(), 0.0);
    EXPECT_GT(harness.run_decode(preset_spec(fw), 3).tbt_mean(), 0.0);
  }
  const StackSpec full = ablation_spec(core::HybriMoeConfig::full());
  const StackSpec baseline = ablation_spec(core::HybriMoeConfig::baseline());
  EXPECT_GT(harness.run_decode(full, 3).tbt_mean(), 0.0);
  EXPECT_GT(harness.run_prefill(baseline, 8).ttft(), 0.0);
}

TEST(SessionTest, FreshEnginePerRun) {
  // Two identical runs must not contaminate each other through cache state.
  ExperimentHarness harness(tiny_spec());
  const auto first = harness.run_decode(preset_spec(Framework::HybriMoE), 5);
  const auto second = harness.run_decode(preset_spec(Framework::HybriMoE), 5);
  EXPECT_DOUBLE_EQ(first.total_latency, second.total_latency);
}

}  // namespace
}  // namespace hybrimoe::runtime
