#include <gtest/gtest.h>

#include "runtime/session.hpp"
#include "workload/generator.hpp"

/// Batched-decode integration: the engines must handle multi-token decode
/// steps (loads > 1 per expert) and the scheduling regime must shift from
/// CPU-miss computation toward GPU streaming as the batch grows.

namespace hybrimoe::runtime {
namespace {

class BatchDecodeEngineTest : public ::testing::Test {
 protected:
  BatchDecodeEngineTest()
      : model_(moe::ModelConfig::deepseek()),
        costs_(hw::MachineProfile::a6000_xeon10(), model_) {
    workload::TraceGenParams wparams;
    wparams.seed = 314;
    workload::TraceGenerator warmup(model_, wparams);
    info_.cache_ratio = 0.25;
    info_.warmup_frequencies =
        workload::activation_frequencies(warmup.generate_decode(16), model_);
  }

  workload::DecodeTrace batch_trace(std::size_t steps, std::size_t batch) {
    workload::TraceGenParams params;
    params.seed = 315;
    workload::TraceGenerator gen(model_, params);
    return gen.generate_decode_batch(steps, batch);
  }

  moe::ModelConfig model_;
  hw::CostModel costs_;
  EngineBuildInfo info_;
};

TEST_F(BatchDecodeEngineTest, AllFrameworksHandleBatchedSteps) {
  const auto trace = batch_trace(4, 6);
  for (const auto fw : kPaperFrameworks) {
    auto engine = make_engine(preset_spec(fw), costs_, info_);
    const auto metrics = engine->run_decode(trace);
    EXPECT_GT(metrics.total_latency, 0.0) << to_string(fw);
    EXPECT_EQ(metrics.per_forward.size(), 4U);
  }
}

TEST_F(BatchDecodeEngineTest, PerTokenLatencyImprovesWithBatching) {
  // Amortisation: 8 sessions decode together faster per token than alone.
  auto engine1 = make_engine(preset_spec(Framework::HybriMoE), costs_, info_);
  auto engine8 = make_engine(preset_spec(Framework::HybriMoE), costs_, info_);
  const auto single = engine1->run_decode(batch_trace(8, 1));
  const auto batched = engine8->run_decode(batch_trace(8, 8));
  const double per_token_single = single.total_latency / 8.0;
  const double per_token_batched = batched.total_latency / (8.0 * 8.0);
  EXPECT_LT(per_token_batched, per_token_single);
}

TEST_F(BatchDecodeEngineTest, LargeBatchesTriggerGpuStreaming) {
  // At batch 1 DeepSeek misses are cheapest on the CPU; at batch 16 the
  // per-expert loads push the hybrid scheduler toward PCIe streaming.
  auto small_engine = make_engine(preset_spec(Framework::HybriMoE), costs_, info_);
  auto large_engine = make_engine(preset_spec(Framework::HybriMoE), costs_, info_);
  const auto small = small_engine->run_decode(batch_trace(6, 1));
  const auto large = large_engine->run_decode(batch_trace(6, 16));
  const double small_rate =
      static_cast<double>(small.transfers) / static_cast<double>(small.cache.misses + 1);
  const double large_rate =
      static_cast<double>(large.transfers) / static_cast<double>(large.cache.misses + 1);
  EXPECT_GT(large_rate, small_rate);
}

TEST_F(BatchDecodeEngineTest, HybriMoEStillLeadsUnderBatching) {
  const auto trace = batch_trace(8, 4);
  auto ktrans = make_engine(preset_spec(Framework::KTransformers), costs_, info_);
  auto hybrimoe = make_engine(preset_spec(Framework::HybriMoE), costs_, info_);
  const double kt = ktrans->run_decode(trace).total_latency;
  const double hm = hybrimoe->run_decode(trace).total_latency;
  EXPECT_GT(kt / hm, 1.1);
}

}  // namespace
}  // namespace hybrimoe::runtime
