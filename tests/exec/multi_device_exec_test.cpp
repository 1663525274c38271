/// \file multi_device_exec_test.cpp
/// Threaded execution of N-device plans: per-device GPU lanes and per-link
/// copy engines must reproduce the single-threaded reference outputs
/// bitwise, at any worker count, with transfer gating honored on every link;
/// a dual-accelerator engine must report the same digest and modeled
/// metrics whether its executor runs simulated or threaded.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/executor.hpp"
#include "hw/topology.hpp"
#include "moe/model_config.hpp"
#include "runtime/frameworks.hpp"
#include "sched/simulator.hpp"
#include "workload/generator.hpp"

namespace hybrimoe::exec {
namespace {

using sched::ExpertDemand;
using sched::Stage;

hw::CostModel multi_costs(std::size_t devices) {
  return {hw::Topology::replicated(hw::Topology::unit_test(), devices),
          moe::ModelConfig::tiny()};
}

#if defined(__SANITIZE_THREAD__)
#define HYBRIMOE_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HYBRIMOE_TEST_TSAN 1
#endif
#endif

ExecOptions fast_options() {
  ExecOptions options;
  // Unit-machine seconds -> ~100us paced tasks; TSan slows wakeups by an
  // order of magnitude, so pace coarser there to keep overshoot negligible.
#if defined(HYBRIMOE_TEST_TSAN)
  options.time_scale = 3e-3;
#else
  options.time_scale = 1e-4;
#endif
  return options;
}

/// Coarser pacing (one unit = 3ms outside TSan) for assertions that bound a
/// wall-clock window by a fixed number of units.
ExecOptions coarse_options() {
  ExecOptions options = fast_options();
  options.time_scale *= 30.0;
  return options;
}

/// Demands exercising every lane: cached experts on both devices, CPU work,
/// and on-demand transfers.
std::vector<ExpertDemand> lane_demands(std::size_t devices) {
  std::vector<ExpertDemand> demands;
  for (std::uint16_t e = 0; e < 10; ++e) {
    ExpertDemand d;
    d.expert = e;
    d.load = 1 + e % 4;
    d.cached = e % 3 == 0;
    if (d.cached)
      d.cached_on =
          sched::accelerator_device(static_cast<std::size_t>(e) % devices);
    demands.push_back(d);
  }
  return demands;
}

TEST(MultiDeviceExecutor, ThreadedMatchesReferenceOnTwoDevicePlans) {
  const auto costs = multi_costs(2);
  const auto demands = lane_demands(2);
  const auto plan = sched::simulate_layer(0, Stage::Decode, demands, costs);
  ASSERT_TRUE(sched::validate_plan(plan, demands).empty());
  ASSERT_EQ(plan.num_accel_devices(), 2u);

  HybridExecutor reference(fast_options());
  reference.begin_step();
  const auto ref = reference.execute_layer_reference(plan);
  (void)reference.end_step();

  HybridExecutor threaded(fast_options());
  threaded.begin_step();
  const auto real = threaded.execute_layer(plan, 0.0);
  const auto step = threaded.end_step();
  EXPECT_EQ(step.layers, 1u);
  EXPECT_GT(real.measured, 0.0);
  EXPECT_EQ(ref.output, real.output);  // bitwise across lanes
}

TEST(MultiDeviceExecutor, DigestsAreWorkerCountInvariantOnFourDevices) {
  const auto costs = multi_costs(4);
  const auto demands = lane_demands(4);
  const auto plan = sched::simulate_layer(0, Stage::Decode, demands, costs);
  ASSERT_TRUE(sched::validate_plan(plan, demands).empty());

  // Three fresh executors: thread timing across runs must not reach the
  // outputs.
  std::uint64_t first_digest = 0;
  for (int run = 0; run < 3; ++run) {
    HybridExecutor executor(fast_options());
    executor.begin_step();
    (void)executor.execute_layer(plan, 0.0);
    const auto step = executor.end_step();
    EXPECT_NE(step.digest, kDigestSeed);
    if (first_digest == 0) {
      first_digest = step.digest;
    } else {
      EXPECT_EQ(step.digest, first_digest) << "run " << run;
    }
  }
}

TEST(MultiDeviceExecutor, AsyncCopiesRouteToTheirLinks) {
  const auto costs = multi_costs(2);
  const auto demands = lane_demands(2);
  const auto plan = sched::simulate_layer(0, Stage::Decode, demands, costs);

  // 30 modeled seconds of speculative copies; if the layer waited on them
  // its window would grow by >= 20 (the busiest link).
  const std::vector<AsyncCopy> copies{{.id = {1, 0}, .link = 0, .seconds = 10.0},
                                      {.id = {1, 1}, .link = 1, .seconds = 10.0},
                                      {.id = {1, 2}, .link = 1, .seconds = 10.0}};
  HybridExecutor executor(coarse_options());
  executor.begin_step();
  const auto result = executor.execute_layer(plan, 0.0, copies);
  // Speculative copies must not extend the layer window (the +10 margin
  // absorbs sleep overshoot at this time scale, well under the 20s the
  // busiest link would add if the layer waited).
  EXPECT_LT(result.measured, plan.makespan + 10.0);
  // Structural witness: when the layer returned, the busiest link had not
  // finished its queue (the plan's own transfers, then two speculative
  // copies ending >= 17 units after the layer).
  std::vector<std::uint64_t> queued(2, 0);
  for (std::size_t link = 0; link < queued.size(); ++link)
    queued[link] = plan.transfer_order(sched::accelerator_device(link)).size();
  for (const auto& copy : copies) ++queued[copy.link];
  EXPECT_LT(executor.link_transfers_completed(1), queued[1]);
  const auto step = executor.end_step();  // drains every link
  EXPECT_EQ(step.layers, 1u);
  for (std::size_t link = 0; link < queued.size(); ++link)
    EXPECT_EQ(executor.link_transfers_completed(link), queued[link]) << "link " << link;
}

TEST(MultiDeviceExecutor, RepeatedLayersStayDeterministic) {
  const auto costs = multi_costs(3);
  const auto demands = lane_demands(3);
  const auto plan = sched::simulate_layer(0, Stage::Decode, demands, costs);

  std::uint64_t digests[2] = {0, 0};
  for (int round = 0; round < 2; ++round) {
    HybridExecutor executor(fast_options());
    executor.begin_step();
    (void)executor.execute_layer(plan, 0.0);
    (void)executor.execute_layer(plan, 0.0);
    digests[round] = executor.end_step().digest;
  }
  EXPECT_EQ(digests[0], digests[1]);
}

}  // namespace
}  // namespace hybrimoe::exec

namespace hybrimoe::runtime {
namespace {

#if defined(HYBRIMOE_TEST_TSAN)
constexpr double kExecScale = 3e-3;
#else
constexpr double kExecScale = 3e-4;
#endif

/// A tiny-model engine fixture: a fixed warmup histogram and one seeded
/// decode trace.
class MultiDeviceEngineTest : public ::testing::Test {
 protected:
  MultiDeviceEngineTest() : model_(moe::ModelConfig::tiny(4, 8, 2)) {
    info_.cache_ratio = 0.25;
    info_.seed = 17;
    info_.warmup_frequencies.assign(model_.num_layers,
                                    std::vector<double>(model_.num_routed_experts));
    for (std::size_t l = 0; l < info_.warmup_frequencies.size(); ++l)
      for (std::size_t e = 0; e < info_.warmup_frequencies[l].size(); ++e)
        info_.warmup_frequencies[l][e] = static_cast<double>((e * 7 + l) % 11);

    workload::TraceGenParams params;
    params.seed = 29;
    workload::TraceGenerator gen(model_, params);
    decode_ = std::make_unique<workload::DecodeTrace>(gen.generate_decode(12));
  }

  moe::ModelConfig model_;
  EngineBuildInfo info_;
  std::unique_ptr<workload::DecodeTrace> decode_;
};

TEST_F(MultiDeviceEngineTest, MultiDeviceEngineDigestsMatchAcrossExecutionModes) {
  // Dual-accelerator engine, simulated-with-executor vs threaded: the device
  // assignment moves computation across lanes but must never change the
  // result (the digest) or any modeled metric.
  const hw::CostModel dual_costs(
      hw::Topology::replicated(hw::Topology::unit_test(), 2), model_);
  StackSpec spec = preset_spec(Framework::HybriMoE);

  exec::ExecOptions options;
  options.time_scale = kExecScale;

  EngineBuildInfo simulated = info_;
  simulated.execution_mode = exec::ExecutionMode::Simulated;
  simulated.executor = std::make_shared<exec::HybridExecutor>(options);
  auto sim_engine = make_engine(spec, dual_costs, simulated);
  EXPECT_EQ(sim_engine->num_devices(), 2u);
  const auto sim_metrics = sim_engine->run_decode(*decode_);

  EngineBuildInfo threaded = info_;
  threaded.execution_mode = exec::ExecutionMode::Threaded;
  threaded.executor = std::make_shared<exec::HybridExecutor>(options);
  auto thr_engine = make_engine(spec, dual_costs, threaded);
  const auto thr_metrics = thr_engine->run_decode(*decode_);

  EXPECT_NE(sim_metrics.exec_digest, 0U);
  EXPECT_EQ(sim_metrics.exec_digest, thr_metrics.exec_digest);
  EXPECT_EQ(sim_metrics.total_latency, thr_metrics.total_latency);
  EXPECT_EQ(sim_metrics.per_forward, thr_metrics.per_forward);
  EXPECT_GT(thr_metrics.measured_latency, 0.0);
}

}  // namespace
}  // namespace hybrimoe::runtime
