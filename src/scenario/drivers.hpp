#pragma once

/// \file drivers.hpp
/// ScenarioSpec -> runtime::StepHook: the driver that injects one scenario's
/// faults into a serving run. One ScenarioDriver instance covers all four
/// families (it switches on the spec) and additionally records a per-step
/// timeline — clocks, latencies, per-device transfer deltas, device health —
/// that the invariant checkers (tests/scenario/invariants.hpp) assert over.
///
/// Family mechanics:
///  * straggler_link — before step `start_step` the target link's bandwidth
///    is scaled by `bandwidth_scale`; before `end_step` it is restored.
///  * device_loss — before `lose_step` the target accelerator is marked
///    unavailable and its cached experts are erased (residency on a lost
///    device is gone, not stale); before `recover_step` it returns with a
///    cold cache.
///  * cache_thrash — each step in [start_step, end_step) the merged trace's
///    per-layer expert loads/scores are rotated by a seeded stride, so the
///    actual routing drifts away from both the cache's learned residency
///    and the (un-rotated) prefetch predictions — a deliberate adversarial
///    mismatch.
///  * overload_storm — a workload-shaping scenario: shape_stream appends
///    `storm_requests` best-effort requests all arriving at `storm_time`;
///    the step hook itself is a pure observer.
///
/// Determinism: a driver holds no hidden state beyond the spec and the
/// timelines it records; the same spec over the same stream reproduces the
/// same timelines exactly.
///
/// The driver also records the simulation's *event* timeline
/// (on_sim_event): every arrival, per-part completion, transfer landing,
/// finish and KV eviction the core pops, in (time, seq) order — the raw
/// feed the per-step StepRecords are a rollup of. Scenario drivers observe
/// events; they perturb runs through the before_step/transform_step seams.
///
/// Recording is delegated to a trace::Recorder — the same machinery behind
/// `hybrimoe_run --trace` — so scenario timelines and streamed traces are
/// one format. A driver owns a private in-memory recorder by default; pass
/// an external one to additionally stream the run's trace to a sink.

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/cost_model.hpp"
#include "runtime/serve_engine.hpp"
#include "scenario/scenario_spec.hpp"
#include "trace/recorder.hpp"
#include "workload/request_stream.hpp"

namespace hybrimoe::scenario {

/// One recorded serving step — the shared trace-stream record (the scenario
/// invariant checkers consume the same struct the trace subsystem emits).
using StepRecord = trace::StepRecord;

/// The fault injector. Mutates the *cost model* (shared with the engine) in
/// before_step and the merged trace in transform_step; requires mutable
/// access to the same hw::CostModel the engine charges against (e.g.
/// ExperimentHarness::mutable_costs()).
class ScenarioDriver final : public runtime::StepHook {
 public:
  /// \brief Bind the driver to its scenario and the run's cost model (which
  /// must outlive the driver). Validates the spec. With no external
  /// recorder the driver records into a private in-memory trace::Recorder;
  /// an external `recorder` (not owned, must outlive the driver) receives
  /// the records instead — e.g. one with a TraceSink attached.
  ScenarioDriver(ScenarioSpec spec, hw::CostModel& costs,
                 trace::Recorder* recorder = nullptr);

  /// The validated scenario this driver injects.
  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }
  /// Per-step timeline recorded so far (one entry per completed step).
  [[nodiscard]] const std::vector<StepRecord>& timeline() const noexcept {
    return recorder_->timeline();
  }
  /// Raw simulation events recorded so far, in (time, seq) pop order.
  [[nodiscard]] const std::vector<serve_sim::Event>& events() const noexcept {
    return recorder_->events();
  }

  /// Apply window-edge fault transitions (straggle/restore, lose/recover),
  /// then let the recorder observe the engine.
  void before_step(std::size_t step_index, double clock,
                   runtime::OffloadEngine& engine) override;
  /// Rotate the merged trace's routing inside a cache-thrash window.
  void transform_step(std::size_t step_index,
                      workload::ForwardTrace& merged) override;
  /// Delegate this step's record to the trace recorder.
  void after_step(const runtime::StepInfo& info,
                  const runtime::StageMetrics& steps) override;
  /// Delegate the popped event to the trace recorder.
  void on_sim_event(const serve_sim::Event& event) override {
    recorder_->on_sim_event(event);
  }

 private:
  /// Window-edge fault transitions for the step about to run.
  void apply_faults(std::size_t step_index, runtime::OffloadEngine& engine);

  ScenarioSpec spec_;
  hw::CostModel& costs_;
  std::unique_ptr<trace::Recorder> owned_recorder_;  ///< when none was passed
  trace::Recorder* recorder_;  ///< the active recorder (owned or external)
  bool fault_active_ = false;  ///< straggler applied / device currently lost
};

/// \brief Apply a scenario's workload shaping to a request stream:
/// overload_storm appends `storm_requests` best-effort requests (ids
/// continuing after the stream's maximum) all arriving at `storm_time`;
/// every other family returns the stream unchanged.
[[nodiscard]] std::vector<workload::RequestSpec> shape_stream(
    std::vector<workload::RequestSpec> specs, const ScenarioSpec& scenario);

}  // namespace hybrimoe::scenario
