#include "exec/executor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sched/simulator.hpp"

namespace hybrimoe::exec {
namespace {

using sched::ExpertDemand;
using sched::Stage;

/// Unit-cost machine (cpu time == load, gpu == 1, transfer == 3) with the
/// tiny model; at kScale one cost unit paces to 300us of wall clock — large
/// against kernel times (~us) and sleep overshoot, small enough for tests.
/// Under ThreadSanitizer every synchronization/kernel op is ~10-20x slower,
/// so the pacing windows grow 10x to keep the timing envelopes meaningful.
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
/// Coarser pacing (one unit = 3ms) for assertions that bound a wall-clock
/// window by a fixed number of units.
constexpr double kCoarseScale = 10 * kScale;

hw::CostModel unit_costs() {
  return {hw::Topology::unit_test(), moe::ModelConfig::tiny()};
}

ExecOptions options_with(double scale = kScale) {
  ExecOptions opts;
  opts.time_scale = scale;
  return opts;
}

/// A layer with both lanes and a transfer: two cached experts (GPU), two
/// uncached (CPU takes the light one, PCIe promotes the heavy one).
std::vector<ExpertDemand> mixed_demands() {
  return {{0, 2, true}, {1, 1, true}, {2, 1, false}, {3, 6, false}};
}

TEST(ExecOptions, ValidatesStructure) {
  // The CPU lane is one thread: workers accepts exactly 1.
  for (const std::size_t workers : {0u, 2u}) {
    ExecOptions bad_workers;
    bad_workers.workers = workers;
    EXPECT_THROW(bad_workers.validate(), std::invalid_argument) << "workers=" << workers;
  }
  ExecOptions bad_scale;
  bad_scale.time_scale = 0.0;
  EXPECT_THROW(bad_scale.validate(), std::invalid_argument);
  ExecOptions bad_dim;
  bad_dim.d_model = 0;
  EXPECT_THROW(bad_dim.validate(), std::invalid_argument);
}

TEST(HybridExecutor, ThreadedOutputMatchesReferenceBitwise) {
  const auto costs = unit_costs();
  const auto demands = mixed_demands();
  const auto plan = sched::simulate_layer(0, Stage::Decode, demands, costs);

  HybridExecutor threaded(options_with());
  threaded.begin_step();
  const auto real = threaded.execute_layer(plan, 0.0, {});
  const auto real_step = threaded.end_step();

  HybridExecutor reference(options_with());
  reference.begin_step();
  const auto ref = reference.execute_layer_reference(plan);
  const auto ref_step = reference.end_step();

  ASSERT_EQ(real.output.size(), ref.output.size());
  for (std::size_t i = 0; i < ref.output.size(); ++i)
    EXPECT_EQ(real.output[i], ref.output[i]) << "component " << i;
  EXPECT_EQ(real_step.digest, ref_step.digest);
  EXPECT_GT(real.measured, 0.0);
  EXPECT_EQ(ref.measured, 0.0);
}

TEST(HybridExecutor, DigestIsIdenticalAcrossFreshExecutors) {
  const auto costs = unit_costs();
  const auto demands = mixed_demands();
  // Three fresh executors: thread timing across runs must not reach the
  // outputs.
  std::vector<std::uint64_t> digests;
  for (int run = 0; run < 3; ++run) {
    HybridExecutor executor(options_with());
    executor.begin_step();
    for (std::uint16_t layer = 0; layer < 3; ++layer) {
      const auto plan = sched::simulate_layer(layer, Stage::Decode, demands, costs);
      (void)executor.execute_layer(plan, 0.0, {});
    }
    digests.push_back(executor.end_step().digest);
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[1], digests[2]);
}

TEST(HybridExecutor, MeasuredTracksModeledLayerMakespan) {
  const auto costs = unit_costs();
  const auto demands = mixed_demands();
  const double overhead = 0.5;
  sched::SimOptions sim;
  sim.gpu_busy_until = 1.0;  // dense head
  const auto plan = sched::simulate_layer(0, Stage::Decode, demands, costs, sim);
  const double modeled = overhead + plan.makespan;

  HybridExecutor executor(options_with());
  executor.begin_step();
  const auto result = executor.execute_layer(plan, overhead, {});
  (void)executor.end_step();
  // Asymmetric envelope: undershoot means serialization/pacing is broken
  // (the real bug signal), so the lower bound is tight; the upper bound only
  // guards against gross overhead and stays loose because parallel CI load
  // can delay wakeups (bench_exec_validation holds the tight 25% bound).
  EXPECT_GT(result.measured, 0.6 * modeled);
  EXPECT_LT(result.measured, 5.0 * modeled);
}

TEST(HybridExecutor, TransferGatesDependentGpuCompute) {
  const auto costs = unit_costs();
  // GPU-only scheduling of an uncached expert: it must be transferred first,
  // so the real makespan cannot undercut transfer + compute.
  sched::SimOptions gpu_only;
  gpu_only.allow_cpu = false;
  gpu_only.allow_cpu_steal = false;
  const std::vector<ExpertDemand> demands{{0, 4, false}};
  const auto plan = sched::simulate_layer(0, Stage::Decode, demands, costs, gpu_only);
  ASSERT_TRUE(plan.tasks[0].transferred);
  const double modeled = plan.makespan;  // 3 (transfer) + 1 (gpu compute)

  HybridExecutor executor(options_with());
  executor.begin_step();
  const auto result = executor.execute_layer(plan, 0.0, {});
  (void)executor.end_step();
  EXPECT_GT(result.measured, 0.8 * modeled);
}

TEST(HybridExecutor, AsyncCopiesDoNotBlockTheLayer) {
  const auto costs = unit_costs();
  const auto demands = mixed_demands();
  const auto plan = sched::simulate_layer(0, Stage::Decode, demands, costs);
  const std::vector<AsyncCopy> prefetches{{.id = {1, 0}, .link = 0, .seconds = 10.0},
                                          {.id = {1, 1}, .link = 0, .seconds = 10.0},
                                          {.id = {1, 2}, .link = 0, .seconds = 10.0},
                                          {.id = {1, 3}, .link = 0, .seconds = 10.0}};

  // Paced coarser than kScale (one unit = 3ms), so scheduler delays on a
  // loaded host stay a small fraction of the 10-unit margin below.
  HybridExecutor executor(options_with(kCoarseScale));
  executor.begin_step();
  // Four speculative copies of 10 units each would add 40 units if the layer
  // waited on them; the layer window must not include that.
  const auto result = executor.execute_layer(plan, 0.0, prefetches);
  EXPECT_LT(result.measured, plan.makespan + 10.0);
  // Structural witness: link 0 had not finished the queued copies (the
  // plan's own transfers plus the four prefetches) when the layer returned.
  const std::uint64_t queued =
      plan.transfer_order(sched::kGpuDevice).size() + prefetches.size();
  EXPECT_LT(executor.link_transfers_completed(0), queued);
  const auto step = executor.end_step();  // end_step drains them
  EXPECT_EQ(step.layers, 1u);
  EXPECT_EQ(executor.link_transfers_completed(0), queued);
}

TEST(HybridExecutor, StepProtocolIsEnforced) {
  const auto costs = unit_costs();
  const auto plan =
      sched::simulate_layer(0, Stage::Decode, mixed_demands(), costs);
  HybridExecutor executor(options_with());
  EXPECT_THROW((void)executor.execute_layer(plan, 0.0, {}), std::invalid_argument);
  EXPECT_THROW((void)executor.end_step(), std::invalid_argument);
  executor.begin_step();
  EXPECT_THROW(executor.begin_step(), std::invalid_argument);
  sched::LayerPlan empty;
  EXPECT_THROW((void)executor.execute_layer(empty, 0.0, {}), std::invalid_argument);
  (void)executor.end_step();
}

TEST(HybridExecutor, AbortStepUnwedgesTheExecutor) {
  // The engine's unwind path: a failure mid-step must not leave a shared
  // executor permanently rejecting begin_step.
  const auto costs = unit_costs();
  const auto plan = sched::simulate_layer(0, Stage::Decode, mixed_demands(), costs);
  HybridExecutor executor(options_with());
  executor.abort_step();  // no open step: no-op
  executor.begin_step();
  (void)executor.execute_layer(plan, 0.0, {});
  executor.abort_step();
  executor.begin_step();  // usable again
  (void)executor.execute_layer(plan, 0.0, {});
  EXPECT_EQ(executor.end_step().layers, 1u);  // aborted step was discarded
}

TEST(HybridExecutor, CalibrateTimeScaleCoversRealKernelTimes) {
  const auto costs = unit_costs();
  HybridExecutor executor(options_with());
  const double scale = executor.calibrate_time_scale(costs, 4.0);
  EXPECT_GT(scale, 0.0);
  // At the returned scale the fastest modeled task (1 unit on this machine)
  // paces to at least 4x any measured real operation: a microsecond-level
  // floor must hold even on fast hosts.
  EXPECT_GE(scale * 1.0, 4e-6);
}

TEST(ExpertStoreDigest, HashChainsAreOrderSensitive) {
  const std::uint64_t a = hash_u64(kDigestSeed, 1);
  const std::uint64_t b = hash_u64(kDigestSeed, 2);
  EXPECT_NE(a, b);
  EXPECT_NE(hash_u64(a, 2), hash_u64(b, 1));
  const float data[2] = {1.0f, -2.5f};
  EXPECT_NE(hash_bytes(kDigestSeed, data, sizeof(data)), kDigestSeed);
}

}  // namespace
}  // namespace hybrimoe::exec
