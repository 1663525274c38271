/// \file quickstart.cpp
/// Minimal end-to-end tour of the public API:
///   1. pick a model (DeepSeek-V2-Lite, paper Table II) and a machine;
///   2. build the experiment harness (trace generation + warmup);
///   3. run prefill and decode under every framework;
///   4. print TTFT / TBT with speedups relative to kTransformers —
///      the comparison the paper's headline numbers (1.33x / 1.70x) make.
///
/// With `--threaded`, a second pass runs the decode comparison through the
/// real execution backend (src/exec): the same plans are dispatched onto
/// worker threads / the copy engine and the modeled makespan is compared to
/// measured wall clock (see docs/EXECUTION.md and bench_exec_validation).

#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>

#include "exec/executor.hpp"
#include "runtime/session.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hybrimoe;
  const bool threaded = argc > 1 && std::strcmp(argv[1], "--threaded") == 0;

  runtime::ExperimentSpec spec;
  spec.model = moe::ModelConfig::deepseek();
  spec.machine = hw::MachineProfile::a6000_xeon10();
  spec.cache_ratio = 0.25;  // 25% of routed experts fit on the GPU
  spec.trace.seed = 2025;

  std::cout << "HybriMoE quickstart\n"
            << "  model   : " << spec.model.name << " (" << spec.model.num_layers
            << " layers, " << spec.model.num_routed_experts << " routed experts, top-"
            << spec.model.top_k << ")\n"
            << "  machine : " << spec.machine.name << "\n"
            << "  cache   : " << spec.cache_ratio * 100 << "% of routed experts\n\n";

  runtime::ExperimentHarness harness(spec);

  constexpr std::size_t kPromptTokens = 128;
  constexpr std::size_t kDecodeSteps = 32;

  const runtime::StackSpec ktrans_stack =
      runtime::preset_spec(runtime::Framework::KTransformers);
  const auto ktrans_prefill = harness.run_prefill(ktrans_stack, kPromptTokens);
  const auto ktrans_decode = harness.run_decode(ktrans_stack, kDecodeSteps);

  util::TextTable table("prefill 128 tokens / decode 32 tokens, DeepSeek @ 25% cache");
  table.set_headers({"framework", "TTFT", "TBT", "hit rate", "xfers", "prefetch",
                     "maint", "speedup(prefill)", "speedup(decode)"});
  for (const auto framework : runtime::kPaperFrameworks) {
    const runtime::StackSpec stack = runtime::preset_spec(framework);
    const auto prefill = harness.run_prefill(stack, kPromptTokens);
    const auto decode = harness.run_decode(stack, kDecodeSteps);
    table.begin_row()
        .add_cell(runtime::to_string(framework))
        .add_cell(util::format_seconds(prefill.ttft()))
        .add_cell(util::format_seconds(decode.tbt_mean()))
        .add_cell(util::format_double(decode.cache.hit_rate() * 100.0, 1) + "%")
        .add_cell(decode.transfers)
        .add_cell(decode.prefetches)
        .add_cell(decode.maintenance)
        .add_cell(util::format_speedup(ktrans_prefill.ttft() / prefill.ttft()))
        .add_cell(util::format_speedup(ktrans_decode.tbt_mean() / decode.tbt_mean()));
  }
  table.print(std::cout);

  // Off-preset stacks are one JSON string away (see docs/ARCHITECTURE.md §9
  // and tools/hybrimoe_run): here, HybriMoE's scheduler with the classic LRU
  // cache and no prefetching — a combination no Framework preset offers.
  const runtime::StackSpec custom = runtime::parse_stack_spec(
      R"({"name": "hybrid-lru", "scheduler": "hybrid", "cache": "lru",
          "prefetch": "none", "update_scores": false, "cache_maintenance": false})");
  const auto custom_decode = harness.run_decode(custom, kDecodeSteps);
  std::cout << "\ncustom stack " << custom.display_name() << " (declarative spec): TBT "
            << util::format_seconds(custom_decode.tbt_mean()) << ", speedup vs KTrans "
            << util::format_speedup(ktrans_decode.tbt_mean() / custom_decode.tbt_mean())
            << "\n";

  if (threaded) {
    // Re-run a short decode with plans lowered onto real threads. The pacing
    // scale targets ~0.4s of wall clock per framework but never drops below
    // the host calibration floor (modeled task durations must dominate real
    // kernel times and sleep overshoot for the comparison to mean anything).
    constexpr std::size_t kExecSteps = 8;
    const auto hybrimoe_decode = harness.run_decode(
        runtime::preset_spec(runtime::Framework::HybriMoE), kExecSteps);
    exec::ExecOptions options;
    options.workers = 4;
    {
      exec::HybridExecutor probe(options);  // calibration only
      options.time_scale = std::max(0.4 / hybrimoe_decode.total_latency,
                                    probe.calibrate_time_scale(harness.costs()));
    }
    // One executor for every framework: engines run sequentially, and the
    // shared weight store keeps output digests comparable across them.
    harness.set_execution(exec::ExecutionMode::Threaded,
                          std::make_shared<exec::HybridExecutor>(options));
    util::TextTable exec_table(
        "threaded execution backend — decode, modeled vs measured wall clock");
    exec_table.set_headers({"framework", "modeled", "measured", "error"});
    for (const auto framework : runtime::kPaperFrameworks) {
      const auto decode = harness.run_decode(runtime::preset_spec(framework), kExecSteps);
      const double error =
          std::abs(decode.measured_latency - decode.total_latency) /
          decode.total_latency;
      exec_table.begin_row()
          .add_cell(runtime::to_string(framework))
          .add_cell(util::format_seconds(decode.total_latency))
          .add_cell(util::format_seconds(decode.measured_latency))
          .add_cell(util::format_double(error * 100.0, 1) + "%");
    }
    exec_table.print(std::cout);
    std::cout << "\n(measured = wall clock / time_scale; run "
                 "bench_exec_validation for the full A/B with digests)\n";
  }

  std::cout << "\nDone. See bench/ for the full paper reproduction harnesses.\n";
  return 0;
}
