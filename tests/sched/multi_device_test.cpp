/// \file multi_device_test.cpp
/// Scheduler invariants on N-device plans: every routed expert placed
/// exactly once, per-link transfer orders consistent with device_order,
/// per-device resource exclusivity (validate_plan), and the basic
/// DeviceId/DeviceSet/Topology algebra.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "hw/topology.hpp"
#include "moe/model_config.hpp"
#include "sched/schedulers.hpp"
#include "sched/simulator.hpp"

namespace hybrimoe::sched {
namespace {

hw::CostModel multi_costs(std::size_t devices) {
  return {hw::Topology::replicated(hw::Topology::unit_test(), devices),
          moe::ModelConfig::tiny()};
}

/// A mixed workload: cached experts spread across devices plus CPU misses.
std::vector<ExpertDemand> mixed_demands(std::size_t devices) {
  std::vector<ExpertDemand> demands;
  for (std::uint16_t e = 0; e < 8; ++e) {
    ExpertDemand d;
    d.expert = e;
    d.load = static_cast<std::uint32_t>(1 + (e * 3) % 5);
    d.cached = e % 2 == 0;
    if (d.cached) d.cached_on = accelerator_device(static_cast<std::size_t>(e / 2) % devices);
    demands.push_back(d);
  }
  return demands;
}

TEST(DeviceId, Algebra) {
  EXPECT_TRUE(kCpuDevice.is_cpu());
  EXPECT_FALSE(kCpuDevice.is_accelerator());
  EXPECT_TRUE(kGpuDevice.is_accelerator());
  EXPECT_EQ(kGpuDevice.accel_index(), 0u);
  EXPECT_EQ(accelerator_device(3).accel_index(), 3u);
  EXPECT_EQ(to_string(kCpuDevice), "cpu");
  EXPECT_EQ(to_string(accelerator_device(1)), "gpu1");
  EXPECT_LT(kCpuDevice, kGpuDevice);
}

TEST(DeviceSet, ContainsExactlyItsDevices) {
  const DeviceSet set(3);
  EXPECT_EQ(set.num_accelerators(), 3u);
  EXPECT_EQ(set.size(), 4u);
  EXPECT_TRUE(set.contains(kCpuDevice));
  EXPECT_TRUE(set.contains(set.accelerator(2)));
  EXPECT_FALSE(set.contains(accelerator_device(3)));
}

TEST(Topology, ReplicatedAndSplit) {
  const auto topo = hw::Topology::replicated(hw::Topology::a6000_xeon10(), 3);
  EXPECT_EQ(topo.num_accelerators(), 3u);
  EXPECT_EQ(topo.accelerators[2].name, "gpu2");
  const auto split = topo.split_cache_capacity(10);
  ASSERT_EQ(split.size(), 3u);
  EXPECT_EQ(split[0] + split[1] + split[2], 10u);
  // Equal shares, remainder to low indices.
  EXPECT_EQ(split[0], 4u);
  EXPECT_EQ(split[1], 3u);
  EXPECT_EQ(split[2], 3u);

  // Multi-accelerator bases: every entry copies accelerator 0 bit for bit
  // and the names run gpu0.., whether the list grows or shrinks.
  for (const auto& [base, n] : {std::pair{hw::Topology::quad_sim(), std::size_t{2}},
                                std::pair{hw::Topology::dual_a6000(), std::size_t{3}}}) {
    const auto resized = hw::Topology::replicated(base, n);
    ASSERT_EQ(resized.num_accelerators(), n);
    EXPECT_EQ(resized.name, base.name + " x" + std::to_string(n));
    const hw::AcceleratorProfile& first = base.accelerators.front();
    for (std::size_t i = 0; i < n; ++i) {
      const hw::AcceleratorProfile& accel = resized.accelerators[i];
      EXPECT_EQ(accel.name, "gpu" + std::to_string(i));
      EXPECT_EQ(std::memcmp(&accel.compute, &first.compute, sizeof first.compute), 0);
      EXPECT_EQ(std::memcmp(&accel.link, &first.link, sizeof first.link), 0);
      EXPECT_EQ(accel.cache_share, first.cache_share);
    }
  }
}

TEST(MultiDeviceSimulator, EveryExpertPlacedExactlyOnceAndPlansValidate) {
  for (const std::size_t devices : {2u, 3u, 4u}) {
    const auto costs = multi_costs(devices);
    const auto demands = mixed_demands(devices);
    const LayerPlan plan = simulate_layer(0, Stage::Decode, demands, costs);
    const auto issues = validate_plan(plan, demands);
    EXPECT_TRUE(issues.empty()) << "devices=" << devices << ": " << issues.front();
    EXPECT_EQ(plan.tasks.size(), demands.size());
    EXPECT_EQ(plan.num_accel_devices(), devices);
    ASSERT_EQ(plan.link_ends.size(), devices);
  }
}

TEST(MultiDeviceSimulator, CachedExpertsComputeOnTheirResidentDevice) {
  const auto costs = multi_costs(2);
  // Cached experts only — no transfers, no CPU benefit: each must run where
  // its resident copy lives.
  std::vector<ExpertDemand> demands;
  for (std::uint16_t e = 0; e < 6; ++e)
    demands.push_back({e, 4, true, accelerator_device(e % 2)});
  SimOptions options;
  options.allow_cpu_steal = false;
  const LayerPlan plan = simulate_layer(0, Stage::Decode, demands, costs, options);
  EXPECT_TRUE(validate_plan(plan, demands).empty());
  for (const auto& t : plan.tasks)
    EXPECT_EQ(t.device, accelerator_device(t.expert.expert % 2)) << t.expert.to_string();
}

TEST(MultiDeviceSimulator, PerLinkTransferOrdersAreConsistentWithDeviceOrder) {
  const auto costs = multi_costs(3);
  // All uncached, GPU-only: every expert streams over some link.
  std::vector<ExpertDemand> demands;
  for (std::uint16_t e = 0; e < 9; ++e)
    demands.push_back({e, static_cast<std::uint32_t>(2 + e % 3), false});
  SimOptions options;
  options.allow_cpu = false;
  options.transfer_only_if_beneficial = false;
  const LayerPlan plan = simulate_layer(0, Stage::Prefill, demands, costs, options);
  EXPECT_TRUE(validate_plan(plan, demands).empty());

  std::size_t total_transfers = 0;
  for (std::size_t a = 0; a < 3; ++a) {
    const DeviceId dev = accelerator_device(a);
    const auto xfers = plan.transfer_order(dev);
    total_transfers += xfers.size();
    // FIFO per link: transfer windows are non-overlapping and ordered.
    for (std::size_t i = 1; i < xfers.size(); ++i)
      EXPECT_GE(plan.tasks[xfers[i]].transfer_start,
                plan.tasks[xfers[i - 1]].transfer_end - 1e-9);
    // Each transferred expert computes on the device its link feeds, after
    // its transfer completes.
    for (const std::size_t i : xfers) {
      EXPECT_EQ(plan.tasks[i].device, dev);
      EXPECT_LE(plan.tasks[i].transfer_end, plan.tasks[i].start + 1e-9);
    }
    // device_order and transfer_order agree on membership for this device.
    for (const std::size_t i : plan.device_order(dev))
      EXPECT_TRUE(plan.tasks[i].transferred);
  }
  EXPECT_EQ(total_transfers, demands.size());
}

TEST(MultiDeviceSimulator, MoreDevicesNeverHurtTheMakespan) {
  const auto demands = mixed_demands(1);  // all cached copies on device 0
  const double one = simulate_layer(0, Stage::Decode, demands, multi_costs(1)).makespan;
  const double two = simulate_layer(0, Stage::Decode, demands, multi_costs(2)).makespan;
  const double four = simulate_layer(0, Stage::Decode, demands, multi_costs(4)).makespan;
  EXPECT_LE(two, one + 1e-9);
  EXPECT_LE(four, two + 1e-9);
  // With enough uncached work the extra links/devices must genuinely help.
  std::vector<ExpertDemand> heavy;
  for (std::uint16_t e = 0; e < 12; ++e) heavy.push_back({e, 6, false});
  SimOptions gpu_only;
  gpu_only.allow_cpu = false;
  gpu_only.transfer_only_if_beneficial = false;
  const double heavy_one =
      simulate_layer(0, Stage::Prefill, heavy, multi_costs(1), gpu_only).makespan;
  const double heavy_four =
      simulate_layer(0, Stage::Prefill, heavy, multi_costs(4), gpu_only).makespan;
  EXPECT_LT(heavy_four, heavy_one);
}

TEST(MultiDeviceSimulator, HybridSchedulerThreadsLinkCarryPerLink) {
  const auto costs = multi_costs(2);
  SimScheduler scheduler = SimScheduler::hybrid();
  const auto demands = mixed_demands(2);
  const std::vector<double> carry{5.0, 0.0};
  const LayerPlan plan =
      scheduler.schedule(0, Stage::Decode, demands, costs, 1.0, carry[0], carry);
  EXPECT_TRUE(validate_plan(plan, demands).empty());
  ASSERT_EQ(plan.link_offsets.size(), 2u);
  EXPECT_EQ(plan.link_offsets[0], 5.0);
  EXPECT_EQ(plan.link_offsets[1], 0.0);
  // No transfer on link 0 may start before its carried occupancy ends.
  for (const std::size_t i : plan.transfer_order(kGpuDevice))
    EXPECT_GE(plan.tasks[i].transfer_start, 5.0 - 1e-9);

  // Without per-link values the scalar carry applies to every link.
  const LayerPlan scalar = scheduler.schedule(0, Stage::Decode, demands, costs, 1.0, 3.0);
  EXPECT_TRUE(validate_plan(scalar, demands).empty());
  EXPECT_EQ(scalar.link_offsets, (std::vector<double>{3.0, 3.0}));
}

TEST(MultiDeviceSimulator, RejectsCachedOnOutsideTheTopology) {
  const auto costs = multi_costs(2);
  std::vector<ExpertDemand> demands{{0, 4, true, accelerator_device(2)}};
  EXPECT_THROW((void)simulate_layer(0, Stage::Decode, demands, costs),
               std::invalid_argument);
}

}  // namespace
}  // namespace hybrimoe::sched
