/// \file chatbot_session.cpp
/// A realistic serving scenario: a multi-turn chat session against an
/// offloaded Qwen2-57B-A14B. Each turn samples a prompt length from the
/// ChatGPT-Prompts distribution, prefills it, then decodes a reply. The
/// example reports per-turn TTFT / TBT for HybriMoE vs kTransformers —
/// the user-facing latencies an edge deployment cares about.

#include <iostream>

#include "runtime/session.hpp"
#include "util/table.hpp"
#include "workload/datasets.hpp"

int main() {
  using namespace hybrimoe;

  runtime::ExperimentSpec spec;
  spec.model = moe::ModelConfig::qwen2();
  spec.machine = hw::MachineProfile::a6000_xeon10();
  spec.cache_ratio = 0.50;
  spec.trace.seed = 7;

  constexpr std::size_t kTurns = 4;
  constexpr std::size_t kReplyTokens = 24;

  std::cout << "Chat session: " << spec.model.name << " @ "
            << spec.cache_ratio * 100 << "% cache, prompts ~ "
            << workload::to_string(workload::Dataset::ChatGptPrompts) << "\n\n";

  runtime::ExperimentHarness harness(spec);
  util::Rng length_rng(spec.trace.seed);
  const runtime::StackSpec ktrans_stack =
      runtime::preset_spec(runtime::Framework::KTransformers);
  const runtime::StackSpec hybrimoe_stack =
      runtime::preset_spec(runtime::Framework::HybriMoE);

  util::TextTable table("per-turn latency, HybriMoE vs KTransformers");
  table.set_headers({"turn", "prompt", "TTFT ktrans", "TTFT hybrimoe", "TBT ktrans",
                     "TBT hybrimoe", "TTFT speedup", "TBT speedup"});

  double ttft_gain = 0.0;
  double tbt_gain = 0.0;
  for (std::size_t turn = 0; turn < kTurns; ++turn) {
    const std::size_t prompt =
        workload::sample_prompt_length(workload::Dataset::ChatGptPrompts, length_rng);

    const auto kt_prefill = harness.run_prefill(ktrans_stack, prompt);
    const auto hm_prefill = harness.run_prefill(hybrimoe_stack, prompt);
    const auto kt_decode = harness.run_decode(ktrans_stack, kReplyTokens + turn);
    const auto hm_decode = harness.run_decode(hybrimoe_stack, kReplyTokens + turn);

    const double sp_ttft = kt_prefill.ttft() / hm_prefill.ttft();
    const double sp_tbt = kt_decode.tbt_mean() / hm_decode.tbt_mean();
    ttft_gain += sp_ttft;
    tbt_gain += sp_tbt;

    table.begin_row()
        .add_cell(std::to_string(turn + 1))
        .add_cell(std::to_string(prompt) + " tok")
        .add_cell(util::format_seconds(kt_prefill.ttft()))
        .add_cell(util::format_seconds(hm_prefill.ttft()))
        .add_cell(util::format_seconds(kt_decode.tbt_mean()))
        .add_cell(util::format_seconds(hm_decode.tbt_mean()))
        .add_cell(util::format_speedup(sp_ttft))
        .add_cell(util::format_speedup(sp_tbt));
  }
  table.print(std::cout);

  std::cout << "\nsession average: TTFT " << util::format_speedup(ttft_gain / kTurns)
            << ", TBT " << util::format_speedup(tbt_gain / kTurns)
            << " vs KTransformers\n";
  return 0;
}
