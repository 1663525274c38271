#include "sched/plan.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

namespace hybrimoe::sched {

namespace {
constexpr double kTimeEps = 1e-9;
}

Stage dominant_stage(std::size_t prefill_tokens, std::size_t decode_tokens) noexcept {
  if (prefill_tokens == 0) return Stage::Decode;
  if (decode_tokens == 0) return Stage::Prefill;
  return prefill_tokens >= decode_tokens ? Stage::Prefill : Stage::Decode;
}

std::size_t LayerPlan::num_accel_devices() const {
  std::size_t n = std::max<std::size_t>(1, std::max(link_offsets.size(), link_ends.size()));
  for (const auto& t : tasks)
    if (t.device.is_accelerator()) n = std::max(n, t.device.accel_index() + 1);
  return n;
}

std::vector<moe::ExpertId> LayerPlan::transferred_experts() const {
  std::vector<moe::ExpertId> out;
  for (const auto& t : tasks)
    if (t.transferred) out.push_back(t.expert);
  return out;
}

std::vector<std::size_t> LayerPlan::device_order(DeviceId device) const {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < tasks.size(); ++i)
    if (tasks[i].device == device) order.push_back(i);
  std::stable_sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return tasks[a].start < tasks[b].start;
  });
  return order;
}

std::vector<std::size_t> LayerPlan::transfer_order(DeviceId device) const {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < tasks.size(); ++i)
    if (tasks[i].transferred && tasks[i].device == device) order.push_back(i);
  std::stable_sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return tasks[a].transfer_start < tasks[b].transfer_start;
  });
  return order;
}

hw::TimelineSet LayerPlan::to_timelines() const {
  hw::TimelineSet set;
  // Collect intervals per resource in start order, then replay.
  struct Item {
    double start, end;
    hw::OpKind kind;
    moe::ExpertId expert;
    std::uint32_t load;
    hw::Resource resource;
  };
  std::vector<Item> items;
  for (const auto& t : tasks) {
    if (t.transferred)
      items.push_back({t.transfer_start, t.transfer_end, hw::OpKind::Transfer, t.expert,
                       t.load, hw::Resource::Pcie});
    items.push_back({t.start, t.end,
                     t.device.is_cpu() ? hw::OpKind::CpuCompute : hw::OpKind::GpuCompute,
                     t.expert, t.load,
                     t.device.is_cpu() ? hw::Resource::Cpu : hw::Resource::Gpu});
  }
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.start < b.start; });
  for (const auto& it : items)
    set.of(it.resource).schedule(it.start, it.end - it.start, it.kind, it.expert, it.load);
  return set;
}

std::vector<std::string> validate_plan(const LayerPlan& plan,
                                       std::span<const ExpertDemand> demands) {
  std::vector<std::string> issues;
  auto complain = [&issues](const std::string& what) { issues.push_back(what); };

  const std::size_t num_accels = plan.num_accel_devices();

  std::unordered_map<std::uint16_t, const ExpertTask*> by_expert;
  for (const auto& t : plan.tasks) {
    if (t.expert.layer != plan.layer)
      complain("task " + t.expert.to_string() + " belongs to another layer");
    if (!by_expert.emplace(t.expert.expert, &t).second)
      complain("expert " + t.expert.to_string() + " computed more than once");
  }

  for (const auto& d : demands) {
    const auto it = by_expert.find(d.expert);
    if (it == by_expert.end()) {
      complain("demanded expert E" + std::to_string(d.expert) + " never computed");
      continue;
    }
    const ExpertTask& t = *it->second;
    if (t.load != d.load)
      complain("expert " + t.expert.to_string() + " load mismatch: plan " +
               std::to_string(t.load) + " vs demand " + std::to_string(d.load));
    if (t.was_cached != d.cached)
      complain("expert " + t.expert.to_string() + " cached flag mismatch");
    if (d.cached && t.was_cached && !t.transferred && t.device.is_accelerator() &&
        t.device != d.cached_on)
      complain("cached expert " + t.expert.to_string() + " computed on " +
               to_string(t.device) + " but resident on " + to_string(d.cached_on));
  }
  if (by_expert.size() != demands.size())
    complain("plan computes " + std::to_string(by_expert.size()) + " experts, demands " +
             std::to_string(demands.size()));

  if (plan.gpu_offset < 0.0) complain("negative gpu_offset");
  // Link-vector shape: one entry per link, and a link for every device a
  // task runs on. Per-link checks below only read entries that exist.
  const std::size_t num_links = plan.link_offsets.size();
  if (num_links == 0 || plan.link_ends.size() != num_links || num_links < num_accels)
    complain("link_offsets/link_ends sized " + std::to_string(num_links) + "/" +
             std::to_string(plan.link_ends.size()) + " for a plan spanning " +
             std::to_string(num_accels) + " accelerator(s)");
  for (std::size_t a = 0; a < std::min(num_links, plan.link_ends.size()); ++a) {
    if (plan.link_offsets[a] < 0.0)
      complain("negative link offset on " + to_string(accelerator_device(a)));
    if (plan.link_ends[a] < plan.link_offsets[a] - kTimeEps)
      complain("link_end before link_offset on " + to_string(accelerator_device(a)));
  }

  double latest_end = plan.gpu_offset;
  double cpu = 0.0;
  double gpu = 0.0;
  double pcie = 0.0;
  for (const auto& t : plan.tasks) {
    if (t.end < t.start - kTimeEps)
      complain("expert " + t.expert.to_string() + " has negative compute duration");
    if (t.device.is_accelerator() && t.start < plan.gpu_offset - kTimeEps)
      complain("expert " + t.expert.to_string() +
               " starts on an accelerator during the dense phase");
    latest_end = std::max(latest_end, t.end);
    (t.device.is_cpu() ? cpu : gpu) += t.end - t.start;

    if (t.transferred) {
      if (t.was_cached)
        complain("cached expert " + t.expert.to_string() + " was transferred");
      if (!t.device.is_accelerator()) {
        complain("transferred expert " + t.expert.to_string() +
                 " not computed on an accelerator");
      } else if (const std::size_t link = t.device.accel_index();
                 link < num_links &&
                 t.transfer_start < plan.link_offsets[link] - kTimeEps) {
        complain("expert " + t.expert.to_string() +
                 " transferred while the link was still carrying earlier work");
      }
      if (t.transfer_end > t.start + kTimeEps)
        complain("expert " + t.expert.to_string() + " computed before its transfer ended");
      if (t.transfer_end < t.transfer_start - kTimeEps)
        complain("expert " + t.expert.to_string() + " has negative transfer duration");
      pcie += t.transfer_end - t.transfer_start;
    } else if (!t.was_cached && t.device.is_accelerator()) {
      complain("uncached expert " + t.expert.to_string() +
               " computed on an accelerator without a transfer");
    }
  }

  // Resource exclusivity, per device and per link.
  auto check_overlap = [&](const std::string& what, auto interval_of) {
    std::vector<std::pair<double, double>> spans;
    for (const auto& t : plan.tasks) {
      const auto iv = interval_of(t);
      if (iv.second > iv.first) spans.push_back(iv);
    }
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i)
      if (spans[i].first < spans[i - 1].second - kTimeEps) {
        complain("overlapping intervals on " + what);
        return;
      }
  };
  check_overlap("CPU", [](const ExpertTask& t) {
    return t.device.is_cpu() ? std::pair{t.start, t.end} : std::pair{0.0, 0.0};
  });
  for (std::size_t a = 0; a < num_accels; ++a) {
    const DeviceId dev = accelerator_device(a);
    check_overlap(to_string(dev), [dev](const ExpertTask& t) {
      return t.device == dev ? std::pair{t.start, t.end} : std::pair{0.0, 0.0};
    });
    check_overlap("link of " + to_string(dev), [dev](const ExpertTask& t) {
      return t.transferred && t.device == dev
                 ? std::pair{t.transfer_start, t.transfer_end}
                 : std::pair{0.0, 0.0};
    });
  }

  if (std::abs(plan.makespan - latest_end) > kTimeEps * (1.0 + latest_end))
    complain("makespan " + std::to_string(plan.makespan) +
             " != latest compute end " + std::to_string(latest_end));
  auto close = [](double a, double b) {
    return std::abs(a - b) <= kTimeEps * (1.0 + std::max(std::abs(a), std::abs(b)));
  };
  if (!close(plan.cpu_busy, cpu)) complain("cpu_busy mismatch");
  if (!close(plan.gpu_busy, gpu)) complain("gpu_busy mismatch");
  if (!close(plan.pcie_busy, pcie)) complain("pcie_busy mismatch");

  return issues;
}

}  // namespace hybrimoe::sched
