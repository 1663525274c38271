/// \file schedule_trace.cpp
/// Reproduces the paper's Fig. 5 worked scheduling example as an ASCII Gantt
/// chart: five experts (A..E), expert E cached on the GPU alongside D, the
/// CPU computing the small uncached experts A and B, PCIe promoting the
/// heavy uncached expert C, and the idle CPU stealing the cached low-load
/// expert E.
///
/// Costs use the unit-test machine: CPU time == load, GPU time == 1 per
/// expert, transfer == 3 — the units of the figure.

#include <iostream>

#include "sched/simulator.hpp"
#include "util/table.hpp"

int main() {
  using namespace hybrimoe;

  const moe::ModelConfig model = moe::ModelConfig::tiny();
  const hw::CostModel costs(hw::Topology::unit_test(), model);

  // The figure's expert set: A:1 B:1 C:3 uncached, D:4 E:1 cached.
  const std::vector<sched::ExpertDemand> demands = {
      {0, 1, false},  // A
      {1, 1, false},  // B
      {2, 3, false},  // C
      {3, 4, true},   // D
      {4, 1, true},   // E
  };
  const char* names[] = {"A", "B", "C", "D", "E"};

  std::cout << "Fig. 5 worked example — unit costs: cpu=load, gpu=1, transfer=3\n\n";

  auto report = [&](const char* title, const sched::SimOptions& options) {
    const auto plan =
        sched::simulate_layer(0, sched::Stage::Decode, demands, costs, options);
    std::cout << "== " << title << " (makespan " << util::format_double(plan.makespan, 2)
              << ") ==\n";
    util::TextTable table;
    table.set_headers({"expert", "load", "device", "transferred", "start", "end"});
    for (const auto& t : plan.tasks) {
      table.begin_row()
          .add_cell(names[t.expert.expert])
          .add_cell(std::to_string(t.load))
          .add_cell(t.device == sched::kCpuDevice ? "CPU" : "GPU")
          .add_cell(t.transferred ? "yes" : "no")
          .add_cell(t.start, 2)
          .add_cell(t.end, 2);
    }
    table.print(std::cout);
    std::cout << sched::render_gantt(plan) << '\n';
  };

  sched::SimOptions hybrid;  // all rules active — HybriMoE
  report("HybriMoE hybrid schedule", hybrid);

  sched::SimOptions fixed;  // no transfers, no stealing — fixed mapping
  fixed.allow_transfers = false;
  fixed.allow_cpu_steal = false;
  report("Fixed mapping (kTransformers-style)", fixed);

  sched::SimOptions gpu_only;  // on-demand loading, CPU unused
  gpu_only.allow_cpu = false;
  gpu_only.transfer_only_if_beneficial = false;
  report("On-demand loading (GPU only)", gpu_only);

  return 0;
}
