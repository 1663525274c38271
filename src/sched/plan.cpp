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

std::string render_gantt(const LayerPlan& plan, std::size_t width) {
  struct Box {
    double start, end;
    moe::ExpertId expert;
  };
  std::vector<Box> lanes[3];  // GPU, PCIe, CPU
  double horizon = 0.0;
  for (const auto& t : plan.tasks) {
    if (t.transferred) lanes[1].push_back({t.transfer_start, t.transfer_end, t.expert});
    lanes[t.device.is_cpu() ? 2 : 0].push_back({t.start, t.end, t.expert});
    horizon = std::max({horizon, t.end, t.transferred ? t.transfer_end : 0.0});
  }
  std::ostringstream os;
  if (horizon <= 0.0) {
    os << "(empty schedule)\n";
    return os.str();
  }
  const double scale = static_cast<double>(width) / horizon;
  const char* names[] = {"GPU  ", "PCIe  ", "CPU  "};  // PCIe sits one column right
  for (std::size_t r = 0; r < 3; ++r) {
    std::stable_sort(lanes[r].begin(), lanes[r].end(),
                     [](const Box& a, const Box& b) { return a.start < b.start; });
    std::string lane(width, '.');
    for (const Box& box : lanes[r]) {
      auto begin = static_cast<std::size_t>(std::floor(box.start * scale));
      auto end = static_cast<std::size_t>(std::ceil(box.end * scale));
      begin = std::min(begin, width - 1);
      end = std::clamp(end, begin + 1, width);
      // The expert's name, then '=' fill, closed by '|'.
      const std::string label = box.expert.to_string();
      for (std::size_t i = begin; i < end; ++i)
        lane[i] = i - begin < label.size() ? label[i - begin] : '=';
      lane[end - 1] = '|';
    }
    os << names[r] << lane << '\n';
  }
  os << "      0" << std::string(width > 14 ? width - 14 : 0, ' ') << "t=" << horizon
     << "s\n";
  return os.str();
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
