#include "sched/simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace hybrimoe::sched {
namespace {

/// Two identical unit-cost accelerators: the smallest topology on which a
/// device can actually be lost (accelerator 0 hosts the dense pipeline and
/// must stay up).
class SimulatorFaultTest : public ::testing::Test {
 protected:
  moe::ModelConfig model_ = moe::ModelConfig::tiny();
  hw::CostModel costs_{
      hw::Topology::replicated(hw::Topology::unit_test(), 2),
      model_};
};

// -- Residency on a lost device --------------------------------------------

TEST_F(SimulatorFaultTest, CachedOnLostDeviceIsRejectedNotScheduled) {
  // Conservation invariant, input side: a demand claiming residency on a
  // device that is gone is a caller bug (the cache layer must invalidate
  // residency on loss), so the simulator refuses rather than silently
  // re-routing.
  costs_.set_accelerator_available(1, false);
  const std::vector<ExpertDemand> demands = {
      {0, 2, false}, {1, 3, true, accelerator_device(1)}};
  EXPECT_THROW((void)simulate_layer(0, Stage::Decode, demands, costs_),
               std::invalid_argument);
  // The same demands are fine while the device is up...
  costs_.set_accelerator_available(1, true);
  const auto plan = simulate_layer(0, Stage::Decode, demands, costs_);
  EXPECT_TRUE(validate_plan(plan, demands).empty());
  // ...and residency on the surviving accelerator is fine after the loss.
  costs_.set_accelerator_available(1, false);
  const std::vector<ExpertDemand> survivors = {
      {0, 2, false}, {1, 3, true, accelerator_device(0)}};
  const auto surviving_plan =
      simulate_layer(0, Stage::Decode, survivors, costs_);
  EXPECT_TRUE(validate_plan(surviving_plan, survivors).empty());
}

// -- Transfer targets ------------------------------------------------------

TEST_F(SimulatorFaultTest, LostDeviceIsNeverATransferTarget) {
  // Conservation invariant, output side: with accelerator 1 lost, heavy
  // uncached experts that would normally spread across both links must all
  // land on the CPU or accelerator 0 — no task or transfer may touch the
  // lost device.
  costs_.set_accelerator_available(1, false);
  const std::vector<ExpertDemand> demands = {
      {0, 9, false}, {1, 8, false}, {2, 7, false}, {3, 6, false},
      {4, 5, false}, {5, 1, false}};
  const auto plan = simulate_layer(0, Stage::Prefill, demands, costs_);
  EXPECT_TRUE(validate_plan(plan, demands).empty());
  const DeviceId lost = accelerator_device(1);
  bool any_transfer = false;
  for (const auto& t : plan.tasks) {
    EXPECT_NE(t.device, lost) << "expert " << t.expert.expert
                              << " scheduled on a lost device";
    any_transfer = any_transfer || t.transferred;
  }
  // The surviving link still promotes work — loss degrades, not disables.
  EXPECT_TRUE(any_transfer);
}

TEST_F(SimulatorFaultTest, HealthyTwinUsesBothDevicesOnTheSameInput) {
  // Counterfactual for the test above: the identical demand set on the
  // healthy topology does reach accelerator 1, proving the empty-device
  // plan is the fault's doing and not the workload's.
  const std::vector<ExpertDemand> demands = {
      {0, 9, false}, {1, 8, false}, {2, 7, false}, {3, 6, false},
      {4, 5, false}, {5, 1, false}};
  const auto plan = simulate_layer(0, Stage::Prefill, demands, costs_);
  EXPECT_TRUE(validate_plan(plan, demands).empty());
  bool uses_second = false;
  for (const auto& t : plan.tasks)
    uses_second = uses_second || t.device == accelerator_device(1);
  EXPECT_TRUE(uses_second);
}

// -- Cost-model health-state misuse ----------------------------------------

TEST_F(SimulatorFaultTest, CostModelRejectsHealthStateMisuse) {
  // Accelerator 0 hosts the dense pipeline: it can never be lost.
  EXPECT_THROW(costs_.set_accelerator_available(0, false),
               std::invalid_argument);
  // Loss and recovery are edges, not levels: repeating either throws.
  costs_.set_accelerator_available(1, false);
  EXPECT_THROW(costs_.set_accelerator_available(1, false),
               std::invalid_argument);
  costs_.set_accelerator_available(1, true);
  EXPECT_THROW(costs_.set_accelerator_available(1, true),
               std::invalid_argument);
  // Out-of-range devices and non-positive link scales are rejected.
  EXPECT_THROW((void)costs_.accelerator_available(2), std::invalid_argument);
  EXPECT_THROW(costs_.set_accelerator_available(2, false),
               std::invalid_argument);
  EXPECT_THROW(costs_.set_link_bandwidth_scale(1, 0.0), std::invalid_argument);
  EXPECT_THROW(costs_.set_link_bandwidth_scale(1, -0.5), std::invalid_argument);
  EXPECT_THROW((void)costs_.link_bandwidth_scale(2), std::invalid_argument);
}

TEST_F(SimulatorFaultTest, LinkScaleStretchesTransfersExactly) {
  // A 0.25x link makes every transfer over it exactly 4x longer; restoring
  // scale 1.0 restores the healthy float bit for bit.
  const double healthy = costs_.transfer_time(1);
  costs_.set_link_bandwidth_scale(1, 0.25);
  EXPECT_NEAR(costs_.transfer_time(1) / healthy, 4.0, 1e-9);
  // The other link is untouched.
  EXPECT_EQ(costs_.transfer_time(0), healthy);
  costs_.set_link_bandwidth_scale(1, 1.0);
  EXPECT_EQ(costs_.transfer_time(1), healthy);
}

}  // namespace
}  // namespace hybrimoe::sched
