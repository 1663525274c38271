#include "sched/optimal.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/assert.hpp"

namespace hybrimoe::sched {

namespace {

/// Johnson's rule for the two-machine flow shop (PCIe -> GPU): jobs whose
/// first-machine time is <= second-machine time go first (ascending first
/// time), the rest go last (descending second time). Optimal for F2.
std::vector<std::size_t> johnson_order(const std::vector<double>& pcie_times,
                                       const std::vector<double>& gpu_times) {
  std::vector<std::size_t> first;
  std::vector<std::size_t> last;
  for (std::size_t j = 0; j < pcie_times.size(); ++j) {
    if (pcie_times[j] <= gpu_times[j]) {
      first.push_back(j);
    } else {
      last.push_back(j);
    }
  }
  std::sort(first.begin(), first.end(), [&](std::size_t a, std::size_t b) {
    if (pcie_times[a] != pcie_times[b]) return pcie_times[a] < pcie_times[b];
    return a < b;
  });
  std::sort(last.begin(), last.end(), [&](std::size_t a, std::size_t b) {
    if (gpu_times[a] != gpu_times[b]) return gpu_times[a] > gpu_times[b];
    return a < b;
  });
  first.insert(first.end(), last.begin(), last.end());
  return first;
}

}  // namespace

double assignment_makespan(std::span<const ExpertDemand> demands,
                           std::span<const DeviceId> assignment,
                           const hw::CostModel& costs, const SimOptions& options) {
  HYBRIMOE_REQUIRE(demands.size() == assignment.size(),
                   "assignment length mismatch");
  const double xfer = costs.transfer_time(0);

  // CPU side: serial; one cold-start penalty on the first task.
  double cpu_total = 0.0;
  bool cpu_used = false;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (assignment[i] != kCpuDevice) continue;
    cpu_total += costs.cpu_expert_time(demands[i].load, cpu_used);
    cpu_used = true;
  }

  // GPU side: cached experts first (head start), then transferred experts
  // as a PCIe->GPU flow shop in Johnson's order.
  double gpu_t = options.gpu_busy_until;
  std::vector<double> pcie_times;
  std::vector<double> gpu_times;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (assignment[i] != kGpuDevice) continue;
    if (demands[i].cached) {
      gpu_t += costs.gpu_expert_time(demands[i].load, 0);
    } else {
      pcie_times.push_back(xfer);
      gpu_times.push_back(costs.gpu_expert_time(demands[i].load, 0));
    }
  }
  double pcie_t =
      options.link_busy_until.empty() ? 0.0 : options.link_busy_until[0];
  for (const std::size_t j : johnson_order(pcie_times, gpu_times)) {
    pcie_t += pcie_times[j];
    gpu_t = std::max(gpu_t, pcie_t) + gpu_times[j];
  }
  return std::max({cpu_total, gpu_t, options.gpu_busy_until});
}

OptimalResult optimal_layer_schedule(std::span<const ExpertDemand> demands,
                                     const hw::CostModel& costs,
                                     const SimOptions& options,
                                     std::size_t max_exhaustive_experts) {
  HYBRIMOE_REQUIRE(!demands.empty(), "optimal_layer_schedule with no demands");
  HYBRIMOE_REQUIRE(demands.size() <= max_exhaustive_experts,
                   "instance too large for exhaustive search");
  options.validate();

  const std::size_t n = demands.size();
  OptimalResult best;
  best.makespan = std::numeric_limits<double>::infinity();
  std::vector<DeviceId> assignment(n);

  for (std::uint32_t mask = 0; mask < (1U << n); ++mask) {
    bool feasible = true;
    for (std::size_t i = 0; i < n && feasible; ++i) {
      const bool on_gpu = (mask >> i) & 1U;
      assignment[i] = on_gpu ? kGpuDevice : kCpuDevice;
      if (on_gpu && !demands[i].cached && !options.allow_transfers) feasible = false;
      if (!on_gpu && !options.allow_cpu) feasible = false;
      if (!on_gpu && demands[i].cached && !options.allow_cpu_steal) feasible = false;
    }
    if (!feasible) continue;
    const double makespan = assignment_makespan(demands, assignment, costs, options);
    if (makespan < best.makespan) {
      best.makespan = makespan;
      best.assignment = assignment;
    }
  }
  HYBRIMOE_ASSERT(!best.assignment.empty(), "no feasible assignment found");
  return best;
}

}  // namespace hybrimoe::sched
