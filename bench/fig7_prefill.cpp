/// \file fig7_prefill.cpp
/// Reproduces Fig. 7: prefill TTFT of llama.cpp / AdapMoE / KTransformers /
/// HybriMoE on the three models, across prompt lengths {32,128,512,1024} and
/// GPU expert cache ratios {25,50,75}%. Per-cell speedups are relative to
/// KTransformers, matching the paper's right axis; the paper's headline is
/// an average 1.33x speedup of HybriMoE over KTransformers.
///
/// `--stacks` swaps the evaluated stacks for any preset/custom spec list
/// (the KTransformers reference row is always computed); `--list-stacks`
/// prints what is available.

#include <iostream>
#include <map>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace hybrimoe;
  using namespace hybrimoe::bench;

  const StackArgs args = parse_stack_args(argc, argv, runtime::kPaperFrameworks);

  print_header("Prefill stage performance (TTFT, seconds)", "paper Fig. 7");

  util::RunningStats hybrimoe_speedup;
  for (const auto& model : moe::paper_models()) {
    for (const double ratio : kCacheRatios) {
      runtime::ExperimentHarness harness(make_spec(model, ratio));

      util::TextTable table(model.name + " with " + pct(ratio) + " cache ratio");
      table.set_headers({"stack", "32", "128", "512", "1024", "avg",
                         "speedup vs KTrans"});

      // KTransformers reference row computed first (shared traces).
      const runtime::StackSpec ktrans_stack =
          runtime::preset_spec(runtime::Framework::KTransformers);
      std::map<std::size_t, double> ktrans;
      for (const std::size_t len : workload::kPaperPrefillLengths)
        ktrans[len] = harness.run_prefill(ktrans_stack, len).ttft();

      for (const auto& stack : args.stacks) {
        double sum = 0.0;
        double ktrans_sum = 0.0;
        table.begin_row().add_cell(stack.display_name());
        for (const std::size_t len : workload::kPaperPrefillLengths) {
          const double ttft = harness.run_prefill(stack, len).ttft();
          sum += ttft;
          ktrans_sum += ktrans[len];
          table.add_cell(ttft, 3);
        }
        const double avg = sum / static_cast<double>(workload::kPaperPrefillLengths.size());
        const double speedup = ktrans_sum / sum;
        table.add_cell(avg, 3).add_cell(util::format_speedup(speedup));
        if (stack.display_name() == runtime::to_string(runtime::Framework::HybriMoE))
          hybrimoe_speedup.add(speedup);
      }
      table.print(std::cout);
    }
  }

  if (hybrimoe_speedup.count() > 0)
    std::cout << "\nHybriMoE average prefill speedup vs KTransformers: "
              << util::format_speedup(hybrimoe_speedup.mean())
              << "   (paper reports 1.33x)\n";
  return 0;
}
