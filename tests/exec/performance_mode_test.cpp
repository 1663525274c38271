/// \file performance_mode_test.cpp
/// Integration coverage for exec::ExecutionMode::Performance — the unpaced
/// execution mode. The lowering is identical to Threaded (same plans, same
/// dependency structure, same dispatched kernels), so on fp32 stacks the
/// layer-output digest must be bitwise identical to both Simulated and
/// Threaded at any worker count, while the measured wall clock must come in
/// strictly below the paced Threaded run (pacing sleeps are the only thing
/// removed). Quantized-expert stacks are covered for run-to-run determinism.
/// This binary is part of the ThreadSanitizer CI job (exec_* glob).

#include <gtest/gtest.h>

#include <memory>

#include "exec/executor.hpp"
#include "runtime/frameworks.hpp"
#include "runtime/session.hpp"

namespace hybrimoe::runtime {
namespace {

/// Same pacing scale policy as exec_engine_test: one cost unit paces to
/// 300us, 10x that under ThreadSanitizer whose instrumentation slows kernels
/// and wakeups by an order of magnitude.
#if defined(__SANITIZE_THREAD__)
#define HYBRIMOE_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HYBRIMOE_TEST_TSAN 1
#endif
#endif
#if defined(HYBRIMOE_TEST_TSAN)
constexpr double kScale = 3e-3;
#else
constexpr double kScale = 3e-4;
#endif
constexpr std::size_t kDecodeSteps = 6;

exec::ExecOptions exec_options(bool quantized = false) {
  exec::ExecOptions opts;
  opts.time_scale = kScale;
  opts.quantized_experts = quantized;
  return opts;
}

ExperimentSpec tiny_spec() {
  ExperimentSpec spec;
  spec.model = moe::ModelConfig::tiny();
  spec.machine = hw::Topology::unit_test();
  spec.cache_ratio = 0.25;
  spec.trace.seed = 7;
  spec.warmup_steps = 16;
  return spec;
}

StageMetrics run_decode(ExperimentHarness& harness, exec::ExecutionMode mode,
                        bool quantized = false) {
  harness.set_execution(
      mode, std::make_shared<exec::HybridExecutor>(exec_options(quantized)));
  return harness.run_decode(preset_spec(Framework::HybriMoE), kDecodeSteps);
}

TEST(PerformanceMode, ToStringAndModeNames) {
  EXPECT_STREQ(exec::to_string(exec::ExecutionMode::Performance), "performance");
  EXPECT_STREQ(exec::to_string(exec::ExecutionMode::Threaded), "threaded");
  EXPECT_STREQ(exec::to_string(exec::ExecutionMode::Simulated), "simulated");
}

TEST(PerformanceMode, DigestBitIdenticalToSimulatedAndThreadedOnFp32) {
  ExperimentHarness harness(tiny_spec());
  const auto simulated =
      run_decode(harness, exec::ExecutionMode::Simulated);
  ASSERT_NE(simulated.exec_digest, 0u);
  const auto threaded = run_decode(harness, exec::ExecutionMode::Threaded);
  EXPECT_EQ(threaded.exec_digest, simulated.exec_digest);

  // Three fresh executors: thread timing across runs must not reach the
  // outputs.
  for (int run = 0; run < 3; ++run) {
    const auto performance = run_decode(harness, exec::ExecutionMode::Performance);
    EXPECT_EQ(performance.exec_digest, simulated.exec_digest) << "run " << run;
    EXPECT_EQ(performance.total_latency, simulated.total_latency)
        << "modeled time must not depend on the backend";
    EXPECT_GT(performance.measured_latency, 0.0);
  }
}

TEST(PerformanceMode, MeasuredLatencyStrictlyBelowPacedThreaded) {
  ExperimentHarness harness(tiny_spec());
  const auto threaded = run_decode(harness, exec::ExecutionMode::Threaded);
  const auto performance =
      run_decode(harness, exec::ExecutionMode::Performance);
  ASSERT_GT(threaded.measured_latency, 0.0);
  ASSERT_GT(performance.measured_latency, 0.0);
  // Threaded sleeps every task out to its modeled deadline; Performance runs
  // the identical task graph without the sleeps, so it must finish strictly
  // sooner (same work is a lower bound on the paced wall clock).
  EXPECT_LT(performance.measured_latency, threaded.measured_latency);
  // And unlike Threaded, the measured time is not calibrated to track the
  // model — it is raw kernel time, far below the paced target here.
  EXPECT_EQ(performance.exec_digest, threaded.exec_digest);
}

TEST(PerformanceMode, PrefillDigestMatchesAcrossModes) {
  ExperimentHarness harness(tiny_spec());
  harness.set_execution(exec::ExecutionMode::Simulated,
                        std::make_shared<exec::HybridExecutor>(exec_options()));
  const auto simulated = harness.run_prefill(preset_spec(Framework::HybriMoE), 8);
  ASSERT_NE(simulated.exec_digest, 0u);
  harness.set_execution(exec::ExecutionMode::Performance,
                        std::make_shared<exec::HybridExecutor>(exec_options()));
  const auto performance = harness.run_prefill(preset_spec(Framework::HybriMoE), 8);
  EXPECT_EQ(performance.exec_digest, simulated.exec_digest);
  EXPECT_GT(performance.measured_latency, 0.0);
}

TEST(PerformanceMode, QuantizedExpertsAreDeterministicAcrossRunsAndModes) {
  // Q4 experts change the math (error-bounded, not bit-identical to fp32),
  // but within the quantized configuration the digest must be reproducible
  // run to run and across backends that share the dispatched kernels.
  ExperimentHarness harness(tiny_spec());
  const auto fp32 = run_decode(harness, exec::ExecutionMode::Performance);
  const auto first = run_decode(harness, exec::ExecutionMode::Performance,
                                /*quantized=*/true);
  const auto second = run_decode(harness, exec::ExecutionMode::Performance,
                                 /*quantized=*/true);
  const auto threaded = run_decode(harness, exec::ExecutionMode::Threaded,
                                   /*quantized=*/true);
  ASSERT_NE(first.exec_digest, 0u);
  EXPECT_EQ(second.exec_digest, first.exec_digest);
  EXPECT_EQ(threaded.exec_digest, first.exec_digest);
  EXPECT_NE(first.exec_digest, fp32.exec_digest)
      << "quantized stacks must actually run the Q4 kernels";
}

}  // namespace
}  // namespace hybrimoe::runtime
