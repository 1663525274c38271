/// \file table3_ablation.cpp
/// Reproduces Table III: speedup breakdown of HybriMoE's techniques on
/// Qwen2 at 25% expert cache ratio. The baseline is the kTransformers-style
/// engine; each row enables one technique (or all) on top of it.
///
/// Paper values — prefill: scheduling 1.26x, prefetching 1.06x, all 1.31x;
/// decode: scheduling 1.46x, prefetching 1.15x, caching 1.38x, all 1.86x.
/// The caching row is decode-only, as in the paper (within a single prefill
/// forward there is no cross-iteration reuse for a cache policy to exploit).

#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace hybrimoe;
  using namespace hybrimoe::bench;

  print_header("Ablation: speedup breakdown on Qwen2 @ 25% cache", "paper Table III");

  constexpr std::size_t kPrefillTokens = 128;

  runtime::ExperimentHarness harness(make_spec(moe::ModelConfig::qwen2(), 0.25));

  const std::vector<runtime::StackSpec> variants = runtime::ablation_specs();

  util::TextTable table("MoE inference speedup breakdown");
  table.set_headers({"stage", "technique", "latency (s)", "speedup"});

  double prefill_base = 0.0;
  for (const auto& spec : variants) {
    if (spec.name == "Baseline+Caching") continue;  // decode-only row
    const double latency = harness.run_prefill(spec, kPrefillTokens).ttft();
    if (spec.name == "Baseline") prefill_base = latency;
    table.begin_row()
        .add_cell("Prefill")
        .add_cell(spec.name)
        .add_cell(latency, 3)
        .add_cell(util::format_speedup(prefill_base / latency));
  }

  double decode_base = 0.0;
  for (const auto& spec : variants) {
    const double latency = harness.run_decode(spec, kDecodeSteps).total_latency;
    if (spec.name == "Baseline") decode_base = latency;
    table.begin_row()
        .add_cell("Decode")
        .add_cell(spec.name)
        .add_cell(latency, 3)
        .add_cell(util::format_speedup(decode_base / latency));
  }
  table.print(std::cout);

  std::cout << "\nExpected ordering per stage: every technique >= 1.0x, scheduling the\n"
               "largest single contribution, All the fastest (paper: prefill 1.31x,\n"
               "decode 1.86x).\n";
  return 0;
}
