#pragma once

/// \file simulator.hpp
/// The greedy timeline-filling simulation at the heart of HybriMoE (§IV-B),
/// generalized from the paper's CPU/GPU pair to one CPU plus N accelerator
/// devices (the cost model's hw::Topology).
///
/// The paper reduces per-layer scheduling to an allocation problem
/// (Eq. 2: minimise max(CPU_TIME, GPU_TIME)) constrained by three priority
/// rules, then *simulates* execution to pick the allocation:
///
///  * GPU priority  — cached experts, highest load first, on the device
///                    holding the resident copy;
///  * CPU priority  — uncached experts, lowest load first, when finishing
///                    one there beats streaming it at the tail of the best
///                    link's chain; when its queue is empty the CPU steals
///                    low-load cached experts; its first task pays the
///                    cold-start warmup (Fig. 3e);
///  * Transfer      — a link promotes the highest-load uncached expert to
///                    the accelerator where the simulated completion is
///                    earliest, when that beats leaving it on the CPU.
///
/// Each simulation step advances the resource timeline (one clock per
/// device, one per link) with the earliest availability and commits its
/// priority-selected operation. The committed trace *is* the schedule: in
/// our discrete-event world, executing a plan is re-running this simulation,
/// so the returned LayerPlan carries both the allocation and the timing.
/// On a single-accelerator topology every decision and every float reduces
/// to the historical pair formulation — plans are bit-identical.
///
/// The same routine — with features disabled through SimOptions — also
/// implements the baseline scheduling policies (kTransformers fixed mapping,
/// AdapMoE GPU-centric, llama.cpp static layers; see schedulers.hpp), so
/// that framework comparisons isolate policy differences only.

#include <span>
#include <vector>

#include "hw/cost_model.hpp"
#include "sched/plan.hpp"

namespace hybrimoe::sched {

/// Feature switches of the greedy simulation.
struct SimOptions {
  /// CPU may compute uncached experts.
  bool allow_cpu = true;
  /// Links may promote uncached experts to an accelerator.
  bool allow_transfers = true;
  /// Idle CPU may steal low-load *cached* experts from accelerator queues.
  bool allow_cpu_steal = true;
  /// Commit a transfer only when its simulated accelerator completion beats
  /// the CPU completion (the paper's simulation-evaluated choice). When
  /// allow_cpu is false this check is vacuous — transfers are the only way
  /// to make progress on uncached experts.
  bool transfer_only_if_beneficial = true;
  /// Every accelerator is occupied until this time by the layer's dense work
  /// (attention + shared experts — see Fig. 5, where the shared expert block
  /// precedes routed experts on the GPU; the dense pipeline is replicated
  /// across devices). The CPU starts at time zero, which is exactly how
  /// hybrid frameworks hide CPU misses under the dense phase.
  double gpu_busy_until = 0.0;
  /// Per-link occupancy by transfers still in flight from previous layers
  /// (prefetches issued asynchronously), one entry per accelerator in
  /// topology order; empty means every link starts at 0. On-demand transfers
  /// queue behind it — so aggressive prefetching *delays* on-demand loads, a
  /// trade-off the beneficial-transfer check sees.
  std::vector<double> link_busy_until{};

  /// Throws std::invalid_argument on inconsistent switches or negative times.
  void validate() const;
};

/// Run the greedy simulation for one layer.
///
/// Preconditions: demands non-empty, loads positive, expert ids unique,
/// cached_on names an accelerator of the cost model's topology;
/// if allow_cpu is false, allow_transfers must be true.
[[nodiscard]] LayerPlan simulate_layer(std::uint16_t layer, Stage stage,
                                       std::span<const ExpertDemand> demands,
                                       const hw::CostModel& costs,
                                       const SimOptions& options = {});

/// Makespan the simulation would reach if `extra_cached` were already
/// resident on the primary accelerator — the counterfactual the
/// impact-driven prefetcher evaluates. (The engine may route the actual
/// upload to a less busy link; the primary-device counterfactual is the
/// prefetcher's documented approximation on multi-device topologies.)
[[nodiscard]] double makespan_with_extra_cached(std::uint16_t layer, Stage stage,
                                                std::span<const ExpertDemand> demands,
                                                std::uint16_t extra_cached,
                                                const hw::CostModel& costs,
                                                const SimOptions& options = {});

}  // namespace hybrimoe::sched
