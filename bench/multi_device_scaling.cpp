/// \file multi_device_scaling.cpp
/// N-device scaling sweep: the same decode workload scheduled by HybriMoE's
/// hybrid stack and by the GPU-centric baseline (AdapMoE's component set) on
/// 1, 2 and 4 simulated A6000-class accelerators, each with a dedicated
/// host link (hw::Topology::replicated). Two claims are checked:
///
///  * at *every* device count, HybriMoE's mean decode-step makespan is
///    strictly below GPU-centric's — the hybrid policy's advantage does not
///    evaporate when devices multiply (exit 1 if it does);
///  * adding devices does not slow HybriMoE down (non-increasing TBT as the
///    device count grows — reported, and checked with a small tolerance).
///
/// The per-device expert-cache budget is held constant (total ratio scales
/// with the device count, capped at 75%), modeling the real situation where
/// each extra GPU brings its own VRAM.
///
/// `--stacks` replaces the two contenders; optional positional argument:
/// JSON summary path (BENCH_multi_device.json in CI).

#include <array>
#include <fstream>
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace hybrimoe;
  using namespace hybrimoe::bench;

  constexpr std::array<runtime::Framework, 2> kDefaults{
      runtime::Framework::HybriMoE, runtime::Framework::AdapMoE};
  const StackArgs args = parse_stack_args(argc, argv, kDefaults);

  print_header("Multi-device scaling: hybrid vs GPU-centric on 1/2/4 accelerators",
               "ROADMAP north-star: N-device topologies beyond the paper's pair");

  constexpr std::size_t kScalingDecodeSteps = 32;
  constexpr std::array<std::size_t, 3> kDeviceCounts{1, 2, 4};

  const auto model = moe::ModelConfig::deepseek();

  struct Cell {
    std::size_t devices = 0;
    std::string stack;
    double tbt = 0.0;
    double hit_rate = 0.0;
    std::size_t transfers = 0;
  };
  std::vector<Cell> cells;

  util::TextTable table(model.name + " — decode " +
                        std::to_string(kScalingDecodeSteps) +
                        " steps, per-device cache budget held constant");
  table.set_headers({"devices", "stack", "TBT", "hit rate", "xfers"});

  bool fail = false;
  std::vector<double> hybrid_tbts;
  for (const std::size_t n : kDeviceCounts) {
    runtime::TopologySpec topo_spec;
    topo_spec.preset = "a6000_xeon10";
    topo_spec.devices = n;

    runtime::ExperimentSpec spec =
        make_spec(model, std::min(0.25 * static_cast<double>(n), 0.75));
    spec.machine = runtime::resolve_topology(topo_spec);
    runtime::ExperimentHarness harness(spec);

    double first_tbt = 0.0;
    for (std::size_t s = 0; s < args.stacks.size(); ++s) {
      runtime::StackSpec stack = args.stacks[s];
      stack.topology = topo_spec;
      const auto decode = harness.run_decode(stack, kScalingDecodeSteps);

      Cell cell;
      cell.devices = n;
      cell.stack = stack.display_name();
      cell.tbt = decode.tbt_mean();
      cell.hit_rate = decode.cache.hit_rate();
      cell.transfers = decode.transfers;
      cells.push_back(cell);
      if (s == 0) {
        first_tbt = cell.tbt;
        hybrid_tbts.push_back(cell.tbt);
      }

      table.begin_row()
          .add_cell(n)
          .add_cell(cell.stack)
          .add_cell(util::format_seconds(cell.tbt))
          .add_cell(util::format_double(cell.hit_rate * 100.0, 1) + "%")
          .add_cell(cell.transfers);

      // The headline check: the first stack (HybriMoE by default) must beat
      // every other contender strictly at this device count.
      if (s > 0 && !(first_tbt < cell.tbt)) {
        std::cout << "FAIL: " << args.stacks.front().display_name() << " TBT "
                  << first_tbt << "s is not strictly below " << cell.stack
                  << " TBT " << cell.tbt << "s at " << n << " device(s)\n";
        fail = true;
      }
    }
  }
  table.print(std::cout);

  // Scaling sanity on the hybrid stack itself: more devices must not hurt
  // (1% tolerance absorbs cache-admission noise between topologies).
  for (std::size_t i = 1; i < hybrid_tbts.size(); ++i) {
    if (hybrid_tbts[i] > hybrid_tbts[i - 1] * 1.01) {
      std::cout << "FAIL: " << args.stacks.front().display_name()
                << " TBT regressed from " << hybrid_tbts[i - 1] << "s at "
                << kDeviceCounts[i - 1] << " device(s) to " << hybrid_tbts[i]
                << "s at " << kDeviceCounts[i] << "\n";
      fail = true;
    }
  }
  if (hybrid_tbts.size() >= 2)
    std::cout << "\n" << args.stacks.front().display_name() << " speedup 1->"
              << kDeviceCounts.back() << " devices: "
              << util::format_double(hybrid_tbts.front() / hybrid_tbts.back(), 2)
              << "x\n";

  if (!args.positional.empty()) {
    std::ofstream json(args.positional.front());
    util::JsonWriter w(json);
    w.field("bench").string("multi_device_scaling");
    w.field("model").string(model.name);
    w.field("decode_steps").number(kScalingDecodeSteps);
    w.field("pass").boolean(!fail);
    w.field("cells").begin_array();
    for (const Cell& c : cells) {
      auto item = w.row();
      item.field("devices").number(c.devices);
      item.field("stack").string(c.stack);
      item.field("tbt_s").number(c.tbt);
      item.field("hit_rate").number(c.hit_rate);
      item.field("transfers").number(c.transfers);
      item.close();
    }
    w.end_array();
    w.finish();
    std::cout << "Wrote " << args.positional.front() << "\n";
  }

  std::cout << (fail ? "\nRESULT: FAIL\n" : "\nRESULT: PASS\n");
  return fail ? 1 : 0;
}
