/// \file platform_scaling.cpp
/// The paper evaluates "on various platforms" (§VI-A.1) by varying the GPU
/// expert cache bound; this harness additionally swaps the whole machine: the
/// A6000+Xeon testbed versus a bandwidth-starved laptop-class edge box. The
/// expectation: HybriMoE's advantage persists across machines, and grows
/// where the PCIe link is slower (transfers are costlier, so dynamic
/// balancing and caching matter more).

#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace hybrimoe;
  using namespace hybrimoe::bench;

  print_header("Platform scaling: decode TBT across machines", "§VI-A.1 platforms");

  const hw::MachineProfile machines[] = {hw::MachineProfile::a6000_xeon10(),
                                         hw::MachineProfile::laptop_edge()};

  for (const auto& machine : machines) {
    util::TextTable table(machine.name + " — decode @ 25% cache");
    table.set_headers({"model", "KTransformers TBT", "HybriMoE TBT", "speedup",
                       "hit (KT)", "hit (HM)"});
    for (const auto& model : moe::paper_models()) {
      auto spec = make_spec(model, 0.25);
      spec.machine = machine;
      runtime::ExperimentHarness harness(spec);
      const auto kt =
          harness.run_decode(runtime::preset_spec(runtime::Framework::KTransformers), 48);
      const auto hm =
          harness.run_decode(runtime::preset_spec(runtime::Framework::HybriMoE), 48);
      table.begin_row()
          .add_cell(model.name)
          .add_cell(util::format_seconds(kt.tbt_mean()))
          .add_cell(util::format_seconds(hm.tbt_mean()))
          .add_cell(util::format_speedup(kt.tbt_mean() / hm.tbt_mean()))
          .add_cell(util::format_double(kt.cache.hit_rate() * 100.0, 1) + "%")
          .add_cell(util::format_double(hm.cache.hit_rate() * 100.0, 1) + "%");
    }
    table.print(std::cout);
  }

  std::cout << "\nExpected: HybriMoE leads on both machines; gains persist (or\n"
               "grow) on the bandwidth-starved edge box.\n";
  return 0;
}
