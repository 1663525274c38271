#include "runtime/session.hpp"

#include "serve_sim/sim_core.hpp"

namespace hybrimoe::runtime {

namespace {

/// Seed offset separating warmup traces from evaluation traces.
constexpr std::uint64_t kWarmupSeedSalt = 0x5EEDFACEULL;

workload::TraceGenParams warmup_params(const workload::TraceGenParams& base) {
  workload::TraceGenParams p = base;
  p.gate_seed = base.effective_gate_seed();  // same model instance ...
  p.seed = base.seed ^ kWarmupSeedSalt;      // ... different token stream
  return p;
}

}  // namespace

ExperimentHarness::ExperimentHarness(ExperimentSpec spec)
    : spec_(std::move(spec)),
      costs_(spec_.machine, spec_.model),
      generator_(spec_.model, spec_.trace) {
  // Warmup statistics from an independent trace: same gates, different
  // token process — no oracle knowledge of the evaluation trace.
  workload::TraceGenerator warmup_gen(spec_.model, warmup_params(spec_.trace));
  const auto warmup_trace = warmup_gen.generate_decode(spec_.warmup_steps);
  warmup_frequencies_ = workload::activation_frequencies(warmup_trace, spec_.model);
}

const workload::PrefillTrace& ExperimentHarness::prefill_trace(std::size_t tokens) {
  auto it = prefill_traces_.find(tokens);
  if (it == prefill_traces_.end()) {
    // A fresh conversation per prompt length, deterministic in (seed, length).
    generator_.reset(spec_.trace.seed + tokens * 2654435761ULL);
    it = prefill_traces_.emplace(tokens, generator_.generate_prefill(tokens)).first;
  }
  return it->second;
}

const workload::DecodeTrace& ExperimentHarness::decode_trace(std::size_t steps) {
  auto it = decode_traces_.find(steps);
  if (it == decode_traces_.end()) {
    generator_.reset(spec_.trace.seed + steps * 0x9E3779B1ULL + 1);
    it = decode_traces_.emplace(steps, generator_.generate_decode(steps)).first;
  }
  return it->second;
}

std::unique_ptr<OffloadEngine> ExperimentHarness::build(const StackSpec& stack) const {
  EngineBuildInfo info;
  info.cache_ratio = spec_.cache_ratio;
  info.warmup_frequencies = warmup_frequencies_;
  info.seed = spec_.trace.seed;
  info.execution_mode = execution_mode_;
  info.executor = executor_;
  return make_engine(stack, costs_, info);
}

void ExperimentHarness::set_execution(exec::ExecutionMode mode,
                                      std::shared_ptr<exec::HybridExecutor> executor) {
  HYBRIMOE_REQUIRE(mode == exec::ExecutionMode::Simulated || executor != nullptr,
                   "threaded execution requires an executor");
  execution_mode_ = mode;
  executor_ = std::move(executor);
}

StageMetrics ExperimentHarness::run_prefill(const StackSpec& stack, std::size_t tokens) {
  return build(stack)->run_prefill(prefill_trace(tokens));
}

StageMetrics ExperimentHarness::run_decode(const StackSpec& stack, std::size_t steps) {
  return build(stack)->run_decode(decode_trace(steps));
}

ServeMetrics ExperimentHarness::serve_stream(
    const StackSpec& stack, std::span<const workload::RequestSpec> requests,
    const ServeOptions& options) {
  const std::unique_ptr<OffloadEngine> engine = build(stack);
  const ServeOptions resolved = resolved_serve_options(stack, options);
  return serve_sim::SimCore(*engine, resolved, generator_).run(requests);
}

ServeOptions ExperimentHarness::resolved_serve_options(const StackSpec& stack,
                                                       ServeOptions options) const {
  if (stack.kv.has_value()) {
    options.kv = *stack.kv;
    if (options.kv.enabled() && options.kv.bytes_per_token <= 0.0)
      options.kv.bytes_per_token = serve_sim::model_kv_bytes_per_token(spec_.model);
  }
  return options;
}

}  // namespace hybrimoe::runtime
