#pragma once

/// \file session.hpp
/// Experiment harness shared by the benches, the examples and the
/// integration tests. It pins down the fairness rules of the evaluation:
///
///  * every framework sees the *identical* routing trace (traces are
///    generated once per harness and replayed);
///  * warmup statistics come from an independent trace (different seed), so
///    no framework gets oracle knowledge of the evaluation trace;
///  * each run starts from a freshly built engine with a freshly seeded
///    cache.
///
/// run_prefill/run_decode run one shared stage trace on a freshly built
/// OffloadEngine; serve_stream runs a full request stream with continuous
/// batching (serve_sim::SimCore) under the same fairness rules — identical
/// per-request traces and warmup for every framework.

#include <map>
#include <memory>
#include <span>

#include "runtime/frameworks.hpp"
#include "runtime/serve_engine.hpp"
#include "workload/generator.hpp"
#include "workload/request_stream.hpp"

namespace hybrimoe::runtime {

/// Full description of one experimental setting.
struct ExperimentSpec {
  moe::ModelConfig model;
  /// The hardware every built engine charges against: the harness's cost
  /// model is CostModel(machine, model). Callers running a stack with a
  /// "topology" section set it to resolve_topology(stack.topology).
  /// Benchmark-pinned surface: bench/e2e sets it, so the field name stays.
  hw::Topology machine = hw::Topology::a6000_xeon10();
  double cache_ratio = 0.25;
  workload::TraceGenParams trace;  ///< includes the seed
  std::size_t warmup_steps = 48;   ///< decode steps observed by the warmup
  /// Execution backend for built engines (default: pure simulation). The
  /// same traces serve both modes, so modeled-vs-measured comparisons are
  /// apples-to-apples; see ExperimentHarness::set_execution.
  exec::ExecutionMode execution_mode = exec::ExecutionMode::Simulated;
  std::shared_ptr<exec::HybridExecutor> executor;
};

/// Builds the cost model, the shared traces and the warmup statistics once,
/// then runs stacks against them. Every runner takes a StackSpec — a preset
/// is preset_spec(f), a Table III variant ablation_spec(config) — so
/// declarative stacks run under exactly the fairness rules of the presets.
class ExperimentHarness {
 public:
  /// Builds the cost model and the warmup statistics.
  explicit ExperimentHarness(ExperimentSpec spec);

  /// The cost model every built engine charges against.
  [[nodiscard]] const hw::CostModel& costs() const noexcept { return costs_; }
  /// Mutable cost-model access for fault injection (scenario drivers flip
  /// device availability / link scales mid-run). The engines built by this
  /// harness charge against this same instance.
  [[nodiscard]] hw::CostModel& mutable_costs() noexcept { return costs_; }
  /// The experimental setting.
  [[nodiscard]] const ExperimentSpec& spec() const noexcept { return spec_; }
  /// Warmup activation frequencies (layer x expert).
  [[nodiscard]] const std::vector<std::vector<double>>& warmup_frequencies()
      const noexcept {
    return warmup_frequencies_;
  }

  /// The shared prefill trace of `tokens` prompt tokens (generated on first
  /// use, then replayed).
  [[nodiscard]] const workload::PrefillTrace& prefill_trace(std::size_t tokens);
  /// The shared decode trace of `steps` steps (generated on first use, then
  /// replayed).
  [[nodiscard]] const workload::DecodeTrace& decode_trace(std::size_t steps);

  /// Build an engine with this harness's warmup statistics.
  [[nodiscard]] std::unique_ptr<OffloadEngine> build(const StackSpec& spec) const;

  /// Switch the execution backend for subsequently built engines — the
  /// knob benches/tests turn to run the *same* harness traces through
  /// simulated and threaded execution (bench_exec_validation's A/B). Pass
  /// Simulated with a non-null executor for reference-output runs.
  void set_execution(exec::ExecutionMode mode,
                     std::shared_ptr<exec::HybridExecutor> executor);

  // -- One-call experiment runners ----------------------------------------
  /// One request over the shared prefill trace, on a freshly built engine.
  [[nodiscard]] StageMetrics run_prefill(const StackSpec& spec, std::size_t tokens);
  /// One request over the shared decode trace, on a freshly built engine.
  [[nodiscard]] StageMetrics run_decode(const StackSpec& spec, std::size_t steps);

  // -- Request-level serving runner ----------------------------------------
  /// Serve a request stream with continuous batching on a freshly built
  /// engine. Each request's traces are materialised from this harness's
  /// generator when it is admitted and freed when it finishes, so live
  /// memory is bounded by the batch instead of the stream. Traces derive
  /// from (harness seed, request id), so every stack served the same specs
  /// sees identical traffic (the fairness rule of the stage experiments).
  [[nodiscard]] ServeMetrics serve_stream(
      const StackSpec& spec, std::span<const workload::RequestSpec> requests,
      const ServeOptions& options = {});

  /// Serving options with the stack's declarative "kv" section applied: the
  /// spec's KvSpec (if any) overrides options.kv, and a bytes_per_token of 0
  /// resolves from this harness's model (serve_sim::model_kv_bytes_per_token).
  /// serve_stream applies it.
  [[nodiscard]] ServeOptions resolved_serve_options(const StackSpec& spec,
                                                    ServeOptions options) const;

 private:
  ExperimentSpec spec_;
  hw::CostModel costs_;
  workload::TraceGenerator generator_;
  std::vector<std::vector<double>> warmup_frequencies_;
  std::map<std::size_t, workload::PrefillTrace> prefill_traces_;
  std::map<std::size_t, workload::DecodeTrace> decode_traces_;
};

}  // namespace hybrimoe::runtime
