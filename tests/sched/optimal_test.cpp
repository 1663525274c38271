#include "sched/optimal.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace hybrimoe::sched {
namespace {

class OptimalTest : public ::testing::Test {
 protected:
  moe::ModelConfig model_ = moe::ModelConfig::tiny();
  hw::CostModel costs_{hw::Topology::unit_test(), model_};
};

TEST_F(OptimalTest, SingleExpertChoosesCheaperDevice) {
  // Load 1 uncached: CPU (1s) beats transfer+GPU (4s).
  const std::vector<ExpertDemand> small = {{0, 1, false}};
  const auto r_small = optimal_layer_schedule(small, costs_);
  EXPECT_NEAR(r_small.makespan, 1.0, 1e-9);
  EXPECT_EQ(r_small.assignment[0], kCpuDevice);

  // Load 10 uncached: transfer+GPU (3+1) beats CPU (10s).
  const std::vector<ExpertDemand> big = {{0, 10, false}};
  const auto r_big = optimal_layer_schedule(big, costs_);
  EXPECT_NEAR(r_big.makespan, 4.0, 1e-9);
  EXPECT_EQ(r_big.assignment[0], kGpuDevice);
}

TEST_F(OptimalTest, Fig5InstanceOptimumIsFour) {
  const std::vector<ExpertDemand> demands = {
      {0, 1, false}, {1, 1, false}, {2, 3, false}, {3, 4, true}, {4, 1, true}};
  const auto result = optimal_layer_schedule(demands, costs_);
  // The greedy hybrid schedule reaches 4.0 on this instance — so does the
  // optimum (the greedy choice is exactly right here).
  EXPECT_NEAR(result.makespan, 4.0, 1e-9);
}

TEST_F(OptimalTest, RespectsFeatureSwitches) {
  const std::vector<ExpertDemand> demands = {{0, 10, false}};
  SimOptions no_transfers;
  no_transfers.allow_transfers = false;
  const auto r = optimal_layer_schedule(demands, costs_, no_transfers);
  EXPECT_EQ(r.assignment[0], kCpuDevice);  // GPU route forbidden
  EXPECT_NEAR(r.makespan, 10.0, 1e-9);

  SimOptions no_cpu;
  no_cpu.allow_cpu = false;
  const auto r2 = optimal_layer_schedule(demands, costs_, no_cpu);
  EXPECT_EQ(r2.assignment[0], kGpuDevice);
}

TEST_F(OptimalTest, NoStealKeepsCachedOnGpu) {
  const std::vector<ExpertDemand> demands = {{0, 1, true}, {1, 1, true}};
  SimOptions no_steal;
  no_steal.allow_cpu_steal = false;
  const auto r = optimal_layer_schedule(demands, costs_, no_steal);
  EXPECT_EQ(r.assignment[0], kGpuDevice);
  EXPECT_EQ(r.assignment[1], kGpuDevice);
  EXPECT_NEAR(r.makespan, 2.0, 1e-9);
  // With stealing allowed the CPU absorbs one and the optimum drops.
  const auto r2 = optimal_layer_schedule(demands, costs_);
  EXPECT_NEAR(r2.makespan, 1.0, 1e-9);
}

TEST_F(OptimalTest, OffsetsRespected) {
  const std::vector<ExpertDemand> demands = {{0, 1, true}};
  SimOptions opt;
  opt.gpu_busy_until = 7.0;
  const auto r = optimal_layer_schedule(demands, costs_, opt);
  // Either the GPU computes it after the dense phase (8) or the CPU steals
  // it (1): stealing wins, but the makespan still covers the dense phase.
  EXPECT_NEAR(r.makespan, 7.0, 1e-9);
}

TEST_F(OptimalTest, RejectsOversizedInstances) {
  std::vector<ExpertDemand> demands;
  for (std::uint16_t e = 0; e < 20; ++e) demands.push_back({e, 1, false});
  EXPECT_THROW((void)optimal_layer_schedule(demands, costs_), std::invalid_argument);
  EXPECT_THROW((void)optimal_layer_schedule({}, costs_), std::invalid_argument);
}

TEST_F(OptimalTest, OptimalNeverAboveGreedy) {
  util::Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<std::uint16_t>(rng.uniform_index(8) + 1);
    std::vector<ExpertDemand> demands;
    for (std::uint16_t e = 0; e < n; ++e)
      demands.push_back({e, static_cast<std::uint32_t>(rng.uniform_index(12) + 1),
                         rng.bernoulli(0.5)});
    const double greedy =
        simulate_layer(0, Stage::Decode, demands, costs_).makespan;
    const double optimal = optimal_layer_schedule(demands, costs_).makespan;
    EXPECT_LE(optimal, greedy + 1e-9) << "trial " << trial;
  }
}

TEST_F(OptimalTest, GreedyGapSmallOnAverage) {
  // The claim behind §III Opportunity 2: simple priority rules land close
  // to the optimum. Bound the mean gap at 10% and the worst case at 60%.
  util::Rng rng(18);
  util::RunningStats gap;
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<std::uint16_t>(rng.uniform_index(8) + 2);
    std::vector<ExpertDemand> demands;
    for (std::uint16_t e = 0; e < n; ++e)
      demands.push_back({e, static_cast<std::uint32_t>(rng.uniform_index(12) + 1),
                         rng.bernoulli(0.5)});
    const double greedy =
        simulate_layer(0, Stage::Decode, demands, costs_).makespan;
    const double optimal = optimal_layer_schedule(demands, costs_).makespan;
    const double ratio = greedy / optimal;
    EXPECT_LT(ratio, 1.6) << "trial " << trial;
    gap.add(ratio);
  }
  EXPECT_LT(gap.mean(), 1.10);
}

TEST_F(OptimalTest, AssignmentMakespanMatchesBruteForceOrdering) {
  // Johnson's rule must beat or match a few arbitrary transfer orders.
  const std::vector<ExpertDemand> demands = {
      {0, 9, false}, {1, 2, false}, {2, 5, false}};
  const std::vector<DeviceId> all_gpu(3, kGpuDevice);
  const double johnson = assignment_makespan(demands, all_gpu, costs_);
  // Brute force: the flow-shop optimum over 3! orders computed by hand is
  // bounded below by total transfer time + last GPU job.
  const double xfer = costs_.transfer_time(0);
  EXPECT_GE(johnson, 3 * xfer);            // PCIe chain is serial
  EXPECT_LE(johnson, 3 * xfer + 3.0 + 1e-9);  // never worse than xfers + all GPU
}

TEST_F(OptimalTest, AssignmentLengthValidated) {
  const std::vector<ExpertDemand> demands = {{0, 1, false}};
  const std::vector<DeviceId> wrong(2, kCpuDevice);
  EXPECT_THROW((void)assignment_makespan(demands, wrong, costs_),
               std::invalid_argument);
}

}  // namespace
}  // namespace hybrimoe::sched
