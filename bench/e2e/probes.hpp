#pragma once

/// \file probes.hpp
/// Outside-in instrumentation for the benchmark. Nothing here changes the
/// library: every number is taken at a public seam.
///
///  * StepTimer — a runtime::StepHook that only takes timestamps. The wall
///    window of one engine step runs from transform_step (called right
///    before OffloadEngine::run_step) to the next simulator event (the first
///    thing the serving core does after run_step returns). It also counts
///    simulator events and the batch size of every step.
///  * register_timed_components — decorators around the scheduler, the
///    prefetcher and the cache policy, registered under their own registry
///    keys ("timed-<inner key>"). A traced run swaps those keys into the
///    preset spec; every virtual the engine or a factory reads (name,
///    impact_options, priority, on_reference, ...) is forwarded unchanged,
///    so the traced run computes the same modeled result as the plain one.

#include <chrono>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "moe/expert_id.hpp"
#include "runtime/serve_engine.hpp"
#include "runtime/stack_spec.hpp"

namespace hybrimoe::e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Call count and wall seconds spent inside one decorated method.
struct Span {
  std::uint64_t calls = 0;
  double seconds = 0.0;
};

/// Everything the decorators measure during one serve. Engine-thread only:
/// the scheduler, prefetcher and cache policy are all called from
/// OffloadEngine::run_step, which runs on the serving thread.
struct LayerCounters {
  // core: Prefetcher::plan.
  Span plan;
  std::uint64_t decisions = 0;
  /// Planned experts used before they left the GPU: in prefill, routed at
  /// their target layer of the same forward (transient buffers live one
  /// forward); in decode, hit in the cache before being evicted.
  std::uint64_t prefetch_hits = 0;

  // sched: LayerScheduler::schedule, every plan checked by validate_plan.
  Span schedule;
  std::uint64_t tasks = 0;
  std::uint64_t cpu_tasks = 0;
  std::uint64_t on_demand = 0;
  std::uint64_t invalid_plans = 0;

  // cache: every CachePolicy call (policy), and two of them on their own.
  Span policy;
  Span victim;
  Span scores;

  /// Wall seconds the decorators spent on their own bookkeeping (plan
  /// validation, hit tracking) inside the engine step. Subtracted from the
  /// runtime's self time so probe cost is not billed to the engine.
  double probe_seconds = 0.0;

  /// Decode prefetches waiting for their cache insert (cleared at the next
  /// schedule call: an insert that has not happened by then was refused).
  std::unordered_set<moe::ExpertId> planned;
  /// Prefetched experts resident in the cache and not yet hit.
  std::unordered_set<moe::ExpertId> resident;
};

/// Register "timed-<key>" wrappers for every scheduler, cache policy and
/// prefetcher key currently registered. The wrappers report into
/// `counters`, which must outlive every engine built from them. Call once.
void register_timed_components(LayerCounters& counters);

/// `spec` with its scheduler, cache policy and prefetcher swapped for their
/// timed wrappers.
[[nodiscard]] runtime::StackSpec timed_spec(runtime::StackSpec spec);

/// Timestamp-only step hook (see the file comment).
class StepTimer final : public runtime::StepHook {
 public:
  void transform_step(std::size_t step_index, workload::ForwardTrace& merged) override;
  void on_sim_event(const serve_sim::Event& event) override;
  void after_step(const runtime::StepInfo& info,
                  const runtime::StageMetrics& steps) override;

  /// Wall seconds of every engine step, in step order.
  [[nodiscard]] const std::vector<double>& step_seconds() const noexcept {
    return steps_;
  }
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }
  /// Mean number of active requests per step (0 before the first step).
  [[nodiscard]] double batch_mean() const noexcept;

 private:
  std::vector<double> steps_;
  Clock::time_point open_{};
  bool step_open_ = false;
  std::uint64_t events_ = 0;
  std::uint64_t batch_total_ = 0;
  std::uint64_t batches_ = 0;
};

}  // namespace hybrimoe::e2e
