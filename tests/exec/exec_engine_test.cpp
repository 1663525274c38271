/// \file exec_engine_test.cpp
/// Engine-level validation of the threaded execution backend: simulated and
/// threaded modes must produce bitwise-identical layer-output digests on the
/// integration traces (at any worker count), the digest must be invariant
/// across scheduling policies, dependency chains under a capacity-1 cache
/// must execute cleanly, and wall-clock measurements must track the model.
/// This binary is part of the ThreadSanitizer CI job.

#include <gtest/gtest.h>

#include <memory>

#include "cache/classic_policies.hpp"
#include "exec/executor.hpp"
#include "runtime/frameworks.hpp"
#include "runtime/session.hpp"
#include "workload/request_stream.hpp"

namespace hybrimoe::runtime {
namespace {

/// One cost unit paces to 300us — 10x that under ThreadSanitizer, whose
/// instrumentation slows kernels/wakeups by an order of magnitude (see
/// hybrid_executor_test for the envelope rationale).
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

exec::ExecOptions exec_options() {
  exec::ExecOptions opts;
  opts.time_scale = kScale;
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

StageMetrics run_decode(ExperimentHarness& harness, Framework framework,
                        exec::ExecutionMode mode) {
  harness.set_execution(mode, std::make_shared<exec::HybridExecutor>(exec_options()));
  return harness.run_decode(preset_spec(framework), kDecodeSteps);
}

TEST(ExecEngine, ThreadedDigestMatchesSimulatedAtEveryWorkerCount) {
  ExperimentHarness harness(tiny_spec());
  const auto reference =
      run_decode(harness, Framework::HybriMoE, exec::ExecutionMode::Simulated);
  ASSERT_NE(reference.exec_digest, 0u);
  EXPECT_EQ(reference.measured_latency, 0.0);

  // Three fresh executors: thread timing across runs must not reach the
  // outputs.
  for (int run = 0; run < 3; ++run) {
    const auto threaded =
        run_decode(harness, Framework::HybriMoE, exec::ExecutionMode::Threaded);
    EXPECT_EQ(threaded.exec_digest, reference.exec_digest) << "run " << run;
    EXPECT_EQ(threaded.total_latency, reference.total_latency)
        << "modeled time must not depend on the backend";
    EXPECT_GT(threaded.measured_latency, 0.0);
  }
}

TEST(ExecEngine, DigestIsInvariantAcrossSchedulingPolicies) {
  // Different frameworks place the same demanded experts on different
  // devices; execution must produce the same combined outputs regardless.
  ExperimentHarness harness(tiny_spec());
  const auto baseline =
      run_decode(harness, Framework::HybriMoE, exec::ExecutionMode::Simulated);
  for (const Framework framework :
       {Framework::AdapMoE, Framework::KTransformers, Framework::OnDemand}) {
    const auto other =
        run_decode(harness, framework, exec::ExecutionMode::Threaded);
    EXPECT_EQ(other.exec_digest, baseline.exec_digest)
        << to_string(framework);
  }
}

TEST(ExecEngine, PrefillDigestMatchesAcrossModes) {
  ExperimentHarness harness(tiny_spec());
  harness.set_execution(exec::ExecutionMode::Simulated,
                        std::make_shared<exec::HybridExecutor>(exec_options()));
  const auto simulated = harness.run_prefill(preset_spec(Framework::HybriMoE), 8);
  harness.set_execution(exec::ExecutionMode::Threaded,
                        std::make_shared<exec::HybridExecutor>(exec_options()));
  const auto threaded = harness.run_prefill(preset_spec(Framework::HybriMoE), 8);
  ASSERT_NE(simulated.exec_digest, 0u);
  EXPECT_EQ(threaded.exec_digest, simulated.exec_digest);
}

TEST(ExecEngine, CapacityOneCacheForcesDependencyChainsAndStaysCorrect) {
  // A 1-slot cache under GPU-centric scheduling turns nearly every layer
  // into a transfer -> GPU-compute chain on the copy thread and GPU lane —
  // the stress shape for dependency handling (and the TSan job).
  const auto spec = tiny_spec();
  const hw::CostModel costs(spec.machine, spec.model);
  workload::TraceGenerator generator(spec.model, spec.trace);
  const auto trace = generator.generate_decode(kDecodeSteps);

  auto build = [&](exec::ExecutionMode mode) {
    EngineComponents c;
    c.name = "stress";
    c.scheduler = std::make_unique<sched::SimScheduler>(sched::SimScheduler::gpu_centric());
    c.caches.push_back(std::make_unique<cache::ExpertCache>(
        1, std::make_unique<cache::LruPolicy>()));
    c.update_policy_scores = false;
    c.execution_mode = mode;
    c.executor = std::make_shared<exec::HybridExecutor>(exec_options());
    return std::make_unique<OffloadEngine>(std::move(c), costs);
  };

  const auto simulated = build(exec::ExecutionMode::Simulated)->run_decode(trace);
  const auto threaded = build(exec::ExecutionMode::Threaded)->run_decode(trace);
  ASSERT_NE(simulated.exec_digest, 0u);
  EXPECT_EQ(threaded.exec_digest, simulated.exec_digest);
  EXPECT_GT(threaded.transfers, 0u);
  EXPECT_GT(threaded.measured_latency, 0.0);
}

TEST(ExecEngine, MeasuredLatencyTracksModeledLatency) {
  ExperimentHarness harness(tiny_spec());
  const auto metrics =
      run_decode(harness, Framework::HybriMoE, exec::ExecutionMode::Threaded);
  // Asymmetric CI-safe envelope (tight undershoot bound = missing
  // serialization; loose overshoot bound = tolerate parallel-test load);
  // bench_exec_validation enforces the 25% bound.
  EXPECT_GT(metrics.measured_latency, 0.5 * metrics.total_latency);
  EXPECT_LT(metrics.measured_latency, 6.0 * metrics.total_latency);
}

TEST(ExecEngine, ServingPathCarriesDigestsThroughContinuousBatching) {
  workload::RequestStreamParams stream;
  stream.num_requests = 3;
  stream.prompt_tokens_min = 4;
  stream.prompt_tokens_max = 8;
  stream.decode_tokens_min = 2;
  stream.decode_tokens_max = 4;
  stream.seed = 11;
  const auto specs = workload::generate_request_stream(stream);

  ExperimentHarness harness(tiny_spec());
  harness.set_execution(exec::ExecutionMode::Simulated,
                        std::make_shared<exec::HybridExecutor>(exec_options()));
  const auto simulated = harness.serve_stream(preset_spec(Framework::HybriMoE), specs);
  harness.set_execution(exec::ExecutionMode::Threaded,
                        std::make_shared<exec::HybridExecutor>(exec_options()));
  const auto threaded = harness.serve_stream(preset_spec(Framework::HybriMoE), specs);

  ASSERT_NE(simulated.steps.exec_digest, 0u);
  EXPECT_EQ(threaded.steps.exec_digest, simulated.steps.exec_digest);
  EXPECT_GT(threaded.steps.measured_latency, 0.0);
  EXPECT_EQ(threaded.steps.total_latency, simulated.steps.total_latency);
}

TEST(ExecEngine, ThreadedModeRequiresAnExecutor) {
  const auto spec = tiny_spec();
  const hw::CostModel costs(spec.machine, spec.model);
  EngineComponents c;
  c.name = "broken";
  c.scheduler = std::make_unique<sched::SimScheduler>(sched::SimScheduler::gpu_centric());
  c.caches.push_back(
      std::make_unique<cache::ExpertCache>(1, std::make_unique<cache::LruPolicy>()));
  c.execution_mode = exec::ExecutionMode::Threaded;
  EXPECT_THROW(OffloadEngine(std::move(c), costs), std::invalid_argument);
}

}  // namespace
}  // namespace hybrimoe::runtime
