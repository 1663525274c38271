#pragma once

/// \file plan.hpp
/// The unit the schedulers produce: a per-layer execution plan assigning every
/// activated expert to a device, with transfer and compute intervals on the
/// per-device resource timelines (CPU, each accelerator, each host link).
/// Plans are checked by validate_plan — every scheduler in the test suite
/// must produce structurally valid plans on every input.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hw/timeline.hpp"
#include "moe/expert_id.hpp"
#include "sched/device.hpp"

namespace hybrimoe::sched {

/// Inference stage; some baselines schedule the two differently
/// (kTransformers uses the CPU only during decode — paper Table I).
enum class Stage : std::uint8_t { Prefill, Decode };

/// Printable stage name ("prefill" / "decode").
[[nodiscard]] constexpr const char* to_string(Stage s) noexcept {
  return s == Stage::Prefill ? "prefill" : "decode";
}

/// Batch-composition entry point for the serving layer: which scheduling
/// regime a *mixed* continuous-batching step (one prefill chunk plus the
/// active decode tokens) runs under. The stage is decided by which kind of
/// work carries the step's token mass — a chunk of 128 prompt tokens next to
/// three decode tokens schedules like prefill (stream misses to the GPU), a
/// two-token tail chunk amid a full decode batch schedules like decode.
[[nodiscard]] Stage dominant_stage(std::size_t prefill_tokens,
                                   std::size_t decode_tokens) noexcept;

/// One activated expert of the current layer as the scheduler sees it.
struct ExpertDemand {
  std::uint16_t expert = 0;
  std::uint32_t load = 0;  ///< tokens routed to this expert (> 0)
  bool cached = false;     ///< resident in some accelerator's expert cache
  /// Which accelerator holds the resident copy (meaningful when `cached`).
  /// Defaults to the primary accelerator, so single-device call sites that
  /// aggregate-initialize {expert, load, cached} are unchanged.
  DeviceId cached_on = kGpuDevice;
};

/// Where/when one expert was computed (and transferred, if it was).
struct ExpertTask {
  moe::ExpertId expert;
  std::uint32_t load = 0;
  DeviceId device = kCpuDevice;  ///< computing device (CPU or an accelerator)
  bool was_cached = false;
  bool transferred = false;  ///< uploaded on demand before accelerator compute
  double transfer_start = 0.0;
  double transfer_end = 0.0;
  double start = 0.0;
  double end = 0.0;
};

/// The scheduler's output for one MoE layer.
struct LayerPlan {
  std::uint16_t layer = 0;
  Stage stage = Stage::Decode;
  std::vector<ExpertTask> tasks;
  /// Accelerator occupancy by the layer's dense phase (SimOptions::
  /// gpu_busy_until, charged to every accelerator — the dense pipeline is
  /// replicated); no accelerator expert task starts before it.
  double gpu_offset = 0.0;
  /// Layer latency: dense phase plus the routed-expert phase
  /// (max of gpu_offset and the latest compute end).
  double makespan = 0.0;
  double cpu_busy = 0.0;
  double gpu_busy = 0.0;   ///< summed across accelerators
  double pcie_busy = 0.0;  ///< summed across links
  /// Occupancy carried into each accelerator link from previous layers'
  /// in-flight transfers, one entry per link in topology order; no transfer
  /// on a link starts before its entry.
  std::vector<double> link_offsets;
  /// When each link frees up after this plan's transfers (>= its offset; the
  /// prefetcher starts its uploads there), one entry per link.
  std::vector<double> link_ends;

  /// Number of accelerator devices this plan spans (>= 1): the larger of the
  /// per-link vectors and the highest task device id.
  [[nodiscard]] std::size_t num_accel_devices() const;

  /// Experts uploaded on demand (they enter their device's cache on
  /// completion).
  [[nodiscard]] std::vector<moe::ExpertId> transferred_experts() const;

  /// Indices of the tasks computed on `device`, in compute-start order —
  /// the serial occupation order of that resource lane. The execution
  /// backend lowers each lane into a chain of real tasks in this order.
  [[nodiscard]] std::vector<std::size_t> device_order(DeviceId device) const;

  /// Indices of the tasks transferred over `device`'s link in transfer-start
  /// order — the FIFO submission order of that link's copy engine.
  [[nodiscard]] std::vector<std::size_t> transfer_order(DeviceId device) const;

  /// Rebuild the three-lane resource timelines (for Gantt rendering and
  /// validation). Accelerator tasks of every device share the GPU lane and
  /// transfers of every link share the PCIe lane, so the chart is only
  /// non-overlapping for single-accelerator plans.
  [[nodiscard]] hw::TimelineSet to_timelines() const;
};

/// Structural validation; returns human-readable violations (empty == valid):
///  * link_offsets and link_ends have one entry per link, covering every
///    task's accelerator;
///  * every demanded expert computed exactly once, with matching load;
///  * an uncached expert computed on an accelerator must have a completed
///    transfer (over that device's link) that ends before its compute starts;
///  * cached experts are never transferred;
///  * no two intervals overlap on the same resource (CPU, each accelerator,
///    each link);
///  * makespan equals the latest compute end and busy sums match intervals.
[[nodiscard]] std::vector<std::string> validate_plan(
    const LayerPlan& plan, std::span<const ExpertDemand> demands);

}  // namespace hybrimoe::sched
