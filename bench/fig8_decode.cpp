/// \file fig8_decode.cpp
/// Reproduces Fig. 8: decode-stage TBT of the four frameworks on the three
/// models across cache ratios {25,50,75}%. The paper's headline is an
/// average 1.70x throughput improvement of HybriMoE over KTransformers; it
/// also notes llama.cpp is comparatively strong in this stage.
///
/// `--stacks` swaps the evaluated stacks for any preset/custom spec list
/// (the KTransformers reference is always computed); `--list-stacks` prints
/// what is available.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace hybrimoe;
  using namespace hybrimoe::bench;

  const StackArgs args = parse_stack_args(argc, argv, runtime::kPaperFrameworks);

  print_header("Decode stage performance (TBT, seconds/token)", "paper Fig. 8");

  util::RunningStats hybrimoe_speedup;
  for (const auto& model : moe::paper_models()) {
    util::TextTable table(model.name + " — decode latency by cached expert ratio");
    std::vector<std::string> headers{"stack"};
    for (const double ratio : kCacheRatios)
      headers.push_back(pct(ratio) + " TBT / speedup / hit");
    table.set_headers(std::move(headers));

    // One harness per ratio, shared by all stacks (identical traces).
    std::vector<std::unique_ptr<runtime::ExperimentHarness>> harnesses;
    for (const double ratio : kCacheRatios)
      harnesses.push_back(
          std::make_unique<runtime::ExperimentHarness>(make_spec(model, ratio)));

    const runtime::StackSpec ktrans_stack =
        runtime::preset_spec(runtime::Framework::KTransformers);
    std::vector<double> ktrans_tbt;
    for (auto& harness : harnesses)
      ktrans_tbt.push_back(harness->run_decode(ktrans_stack, kDecodeSteps).tbt_mean());

    for (const auto& stack : args.stacks) {
      table.begin_row().add_cell(stack.display_name());
      for (std::size_t r = 0; r < kCacheRatios.size(); ++r) {
        const auto metrics = harnesses[r]->run_decode(stack, kDecodeSteps);
        const double speedup = ktrans_tbt[r] / metrics.tbt_mean();
        table.add_cell(util::format_seconds(metrics.tbt_mean()) + " / " +
                       util::format_speedup(speedup) + " / " +
                       util::format_double(metrics.cache.hit_rate() * 100.0, 1) + "%");
        if (stack.display_name() == runtime::to_string(runtime::Framework::HybriMoE))
          hybrimoe_speedup.add(speedup);
      }
    }
    table.print(std::cout);
  }

  if (hybrimoe_speedup.count() > 0)
    std::cout << "\nHybriMoE average decode speedup vs KTransformers: "
              << util::format_speedup(hybrimoe_speedup.mean())
              << "   (paper reports 1.70x)\n";
  return 0;
}
