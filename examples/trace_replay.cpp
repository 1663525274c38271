/// \file trace_replay.cpp
/// Record / replay workflow: capture a routing trace to a file, reload it,
/// and evaluate several scheduling policies against the *identical* expert
/// activations — how one A/B-tests cache and scheduling changes offline
/// without re-running a model.

#include <cstdio>
#include <iostream>

#include "core/warmup.hpp"
#include "runtime/frameworks.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"
#include "workload/trace_io.hpp"

int main(int argc, char** argv) {
  using namespace hybrimoe;

  const std::string path =
      argc > 1 ? argv[1] : std::string("/tmp/hybrimoe_recorded_trace.txt");
  const auto model = moe::ModelConfig::deepseek();

  // --- Record: generate a 32-step decode trace and persist it.
  workload::TraceGenParams params;
  params.seed = 1234;
  workload::TraceGenerator generator(model, params);
  const auto recorded = generator.generate_decode(32);
  workload::save_trace(path, recorded);
  std::cout << "recorded " << recorded.num_steps() << "-step decode trace of "
            << model.name << " to " << path << "\n";

  // --- Replay: reload and evaluate every framework on the same trace.
  const auto replayed = workload::load_decode_trace(path);
  std::cout << "reloaded " << replayed.num_steps() << " steps; replaying...\n\n";

  const hw::CostModel costs(hw::Topology::a6000_xeon10(), model);
  workload::TraceGenParams wparams = params;
  wparams.gate_seed = params.effective_gate_seed();
  wparams.seed = params.seed ^ 0x5151;
  workload::TraceGenerator warmup_gen(model, wparams);
  runtime::EngineBuildInfo info;
  info.cache_ratio = 0.25;
  info.warmup_frequencies =
      workload::activation_frequencies(warmup_gen.generate_decode(32), model);

  util::TextTable table("replay results @ 25% cache");
  table.set_headers({"framework", "TBT", "hit rate", "transfers", "prefetches"});
  for (const auto fw : runtime::kPaperFrameworks) {
    auto engine = runtime::make_engine(runtime::preset_spec(fw), costs, info);
    const auto metrics = engine->run_decode(replayed);
    table.begin_row()
        .add_cell(runtime::to_string(fw))
        .add_cell(util::format_seconds(metrics.tbt_mean()))
        .add_cell(util::format_double(metrics.cache.hit_rate() * 100.0, 1) + "%")
        .add_cell(metrics.transfers)
        .add_cell(metrics.prefetches);
  }
  table.print(std::cout);

  std::remove(path.c_str());
  std::cout << "\n(temporary trace file removed)\n";
  return 0;
}
