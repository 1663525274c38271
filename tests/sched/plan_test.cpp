#include "sched/plan.hpp"

#include <gtest/gtest.h>

namespace hybrimoe::sched {
namespace {

LayerPlan valid_plan() {
  LayerPlan plan;
  plan.layer = 2;
  // CPU computes expert 0 [0,2); GPU computes expert 1 after a transfer
  // [0,3) -> compute [3,4).
  ExpertTask cpu;
  cpu.expert = {2, 0};
  cpu.load = 2;
  cpu.device = kCpuDevice;
  cpu.start = 0.0;
  cpu.end = 2.0;
  ExpertTask gpu;
  gpu.expert = {2, 1};
  gpu.load = 5;
  gpu.device = kGpuDevice;
  gpu.transferred = true;
  gpu.transfer_start = 0.0;
  gpu.transfer_end = 3.0;
  gpu.start = 3.0;
  gpu.end = 4.0;
  plan.tasks = {cpu, gpu};
  plan.makespan = 4.0;
  plan.cpu_busy = 2.0;
  plan.gpu_busy = 1.0;
  plan.pcie_busy = 3.0;
  plan.link_offsets = {0.0};
  plan.link_ends = {3.0};
  return plan;
}

std::vector<ExpertDemand> matching_demands() {
  return {{0, 2, false}, {1, 5, false}};
}

TEST(ValidatePlanTest, AcceptsValidPlan) {
  const auto issues = validate_plan(valid_plan(), matching_demands());
  EXPECT_TRUE(issues.empty()) << (issues.empty() ? "" : issues.front());
}

TEST(ValidatePlanTest, DetectsMissingExpert) {
  auto plan = valid_plan();
  plan.tasks.pop_back();
  plan.makespan = 2.0;
  plan.gpu_busy = 0.0;
  plan.pcie_busy = 0.0;
  EXPECT_FALSE(validate_plan(plan, matching_demands()).empty());
}

TEST(ValidatePlanTest, DetectsDuplicateExpert) {
  auto plan = valid_plan();
  plan.tasks.push_back(plan.tasks[0]);
  EXPECT_FALSE(validate_plan(plan, matching_demands()).empty());
}

TEST(ValidatePlanTest, DetectsLoadMismatch) {
  auto plan = valid_plan();
  plan.tasks[0].load = 99;
  EXPECT_FALSE(validate_plan(plan, matching_demands()).empty());
}

TEST(ValidatePlanTest, DetectsWrongLayer) {
  auto plan = valid_plan();
  plan.tasks[0].expert.layer = 5;
  EXPECT_FALSE(validate_plan(plan, matching_demands()).empty());
}

TEST(ValidatePlanTest, DetectsComputeBeforeTransferEnds) {
  auto plan = valid_plan();
  plan.tasks[1].start = 2.0;  // transfer ends at 3.0
  plan.tasks[1].end = 3.0;
  plan.makespan = 3.0;
  EXPECT_FALSE(validate_plan(plan, matching_demands()).empty());
}

TEST(ValidatePlanTest, DetectsUncachedGpuWithoutTransfer) {
  auto plan = valid_plan();
  plan.tasks[1].transferred = false;
  plan.pcie_busy = 0.0;
  EXPECT_FALSE(validate_plan(plan, matching_demands()).empty());
}

TEST(ValidatePlanTest, DetectsTransferredCachedExpert) {
  auto plan = valid_plan();
  auto demands = matching_demands();
  demands[1].cached = true;
  plan.tasks[1].was_cached = true;
  EXPECT_FALSE(validate_plan(plan, demands).empty());
}

TEST(ValidatePlanTest, DetectsOverlapOnDevice) {
  auto plan = valid_plan();
  ExpertTask extra;
  extra.expert = {2, 2};
  extra.load = 1;
  extra.device = kCpuDevice;
  extra.start = 1.0;  // overlaps [0,2) on the CPU
  extra.end = 2.5;
  plan.tasks.push_back(extra);
  plan.cpu_busy += 1.5;
  auto demands = matching_demands();
  demands.push_back({2, 1, false});
  EXPECT_FALSE(validate_plan(plan, demands).empty());
}

TEST(ValidatePlanTest, DetectsMakespanMismatch) {
  auto plan = valid_plan();
  plan.makespan = 10.0;
  EXPECT_FALSE(validate_plan(plan, matching_demands()).empty());
}

TEST(ValidatePlanTest, DetectsBusyMismatch) {
  auto plan = valid_plan();
  plan.cpu_busy = 5.0;
  EXPECT_FALSE(validate_plan(plan, matching_demands()).empty());
}

TEST(ValidatePlanTest, DetectsGpuStartInsideDensePhase) {
  auto plan = valid_plan();
  plan.gpu_offset = 3.5;  // GPU compute starts at 3.0 < offset
  plan.makespan = 4.0;
  EXPECT_FALSE(validate_plan(plan, matching_demands()).empty());
}

TEST(ValidatePlanTest, DetectsTransferBeforePcieOffset) {
  auto plan = valid_plan();
  plan.link_offsets = {1.0};  // transfer starts at 0.0
  EXPECT_FALSE(validate_plan(plan, matching_demands()).empty());
}

TEST(ValidatePlanTest, RejectsPlanWithoutLinkVectors) {
  auto plan = valid_plan();
  plan.link_offsets.clear();
  plan.link_ends.clear();
  EXPECT_FALSE(validate_plan(plan, matching_demands()).empty());
}

TEST(ValidatePlanTest, RejectsLinkVectorsOfDifferentSizes) {
  auto plan = valid_plan();
  plan.link_ends = {3.0, 0.0};
  EXPECT_FALSE(validate_plan(plan, matching_demands()).empty());
}

TEST(ValidatePlanTest, RejectsLinkVectorsMissingATaskDevice) {
  // The transferred expert moves to accelerator 1, which has no link entry.
  auto plan = valid_plan();
  plan.tasks[1].device = accelerator_device(1);
  EXPECT_FALSE(validate_plan(plan, matching_demands()).empty());
  plan.link_offsets = {0.0, 0.0};
  plan.link_ends = {0.0, 3.0};
  const auto issues = validate_plan(plan, matching_demands());
  EXPECT_TRUE(issues.empty()) << (issues.empty() ? "" : issues.front());
}

TEST(LayerPlanTest, TransferredExpertsListed) {
  const auto plan = valid_plan();
  const auto transfers = plan.transferred_experts();
  ASSERT_EQ(transfers.size(), 1U);
  EXPECT_EQ(transfers[0], (moe::ExpertId{2, 1}));
}

TEST(LayerPlanTest, ToTimelinesRoundTrip) {
  const auto plan = valid_plan();
  const auto timelines = plan.to_timelines();
  EXPECT_DOUBLE_EQ(timelines.makespan(), plan.makespan);
  EXPECT_DOUBLE_EQ(timelines.cpu.busy_time(), plan.cpu_busy);
  EXPECT_DOUBLE_EQ(timelines.gpu.busy_time(), plan.gpu_busy);
  EXPECT_DOUBLE_EQ(timelines.pcie.busy_time(), plan.pcie_busy);
}

TEST(StageTest, Names) {
  EXPECT_STREQ(to_string(Stage::Prefill), "prefill");
  EXPECT_STREQ(to_string(Stage::Decode), "decode");
}

}  // namespace
}  // namespace hybrimoe::sched
