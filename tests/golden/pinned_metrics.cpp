/// \file pinned_metrics.cpp
/// Exact metric snapshot for the golden_pinned_metrics byte-diff. Prints one
/// JSON line per case, every double in shortest round-trip form, so any
/// drift in a metric (a default parameter, an overhead constant, seeding
/// pinnedness, an admission rule) changes the output. Cases:
///  * every framework preset: prefill then decode on one engine, and decode
///    on a fresh engine built without warmup frequencies;
///  * every Table III ablation variant plus a tweaked full config: prefill
///    then decode on one engine;
///  * eight serving streams through ExperimentHarness::serve_stream: FIFO,
///    chunked under a tight batch cap, burst, diurnal, priority tiers with
///    an SLO, admission-control rejection, spaced tiers that trigger
///    preemption, and tier-queue overflow;
///  * every topology preset, three accelerator-count overrides and one
///    warmup calibration fit: the full hardware description, so a preset
///    or the fitting arithmetic cannot drift.
///
/// Usage: pinned_metrics > out.jsonl  (no arguments).

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "hw/calibration.hpp"
#include "runtime/frameworks.hpp"
#include "runtime/stack_registry.hpp"
#include "runtime/session.hpp"
#include "util/json_writer.hpp"
#include "workload/generator.hpp"
#include "workload/request_stream.hpp"

namespace {

using namespace hybrimoe;
using util::JsonWriter;

void write_stage(JsonWriter::Inline& line, const runtime::StageMetrics& m) {
  line.field("stage").string(sched::to_string(m.stage));
  line.field("tokens").number(m.tokens);
  line.field("total_latency").exact(m.total_latency);
  line.field("per_forward").exact_list(m.per_forward);
  line.field("attention_time").exact(m.attention_time);
  line.field("shared_time").exact(m.shared_time);
  line.field("moe_time").exact(m.moe_time);
  line.field("cpu_busy").exact(m.cpu_busy);
  line.field("gpu_busy").exact(m.gpu_busy);
  line.field("pcie_busy").exact(m.pcie_busy);
  line.field("cache_hits").number(m.cache.hits);
  line.field("cache_misses").number(m.cache.misses);
  line.field("transfers").number(m.transfers);
  line.field("prefetches").number(m.prefetches);
  line.field("maintenance").number(m.maintenance);
  line.field("exec_digest").number(m.exec_digest);
}

void print_stage(const std::string& label, runtime::OffloadEngine& engine,
                 const runtime::StageMetrics& m) {
  JsonWriter::Inline line(std::cout);
  line.field("case").string(label);
  line.field("engine").string(engine.name());
  line.field("capacity").number(engine.device_cache(0).capacity());
  write_stage(line, m);
  line.close();
  std::cout << '\n';
}

/// The engine fixture: a tiny model on the unit-test machine, a fixed
/// warmup histogram and one seeded prefill/decode trace pair.
struct EngineFixture {
  moe::ModelConfig model = moe::ModelConfig::tiny(4, 8, 2);
  hw::CostModel costs{hw::Topology::unit_test(), model};
  runtime::EngineBuildInfo info;
  workload::PrefillTrace prefill;
  workload::DecodeTrace decode;

  EngineFixture() {
    info.cache_ratio = 0.25;
    info.seed = 17;
    info.warmup_frequencies.assign(model.num_layers,
                                   std::vector<double>(model.num_routed_experts));
    for (std::size_t l = 0; l < info.warmup_frequencies.size(); ++l)
      for (std::size_t e = 0; e < info.warmup_frequencies[l].size(); ++e)
        info.warmup_frequencies[l][e] = static_cast<double>((e * 7 + l) % 11);

    workload::TraceGenParams params;
    params.seed = 29;
    workload::TraceGenerator gen(model, params);
    prefill = gen.generate_prefill(24);
    decode = gen.generate_decode(12);
  }

  /// Prefill, then decode on the same engine (cache state carries over).
  void print_prefill_decode(const std::string& label,
                            const runtime::StackSpec& spec) const {
    auto engine = runtime::make_engine(spec, costs, info);
    const auto prefill_metrics = engine->run_prefill(prefill);
    print_stage(label + " prefill", *engine, prefill_metrics);
    const auto decode_metrics = engine->run_decode(decode);
    print_stage(label + " decode", *engine, decode_metrics);
  }
};

void print_engine_cases() {
  const EngineFixture fx;
  for (const runtime::Framework framework : runtime::kAllFrameworks)
    fx.print_prefill_decode(std::string("preset ") + runtime::to_string(framework),
                            runtime::preset_spec(framework));

  runtime::EngineBuildInfo no_warmup = fx.info;
  no_warmup.warmup_frequencies.clear();
  for (const runtime::Framework framework : runtime::kAllFrameworks) {
    auto engine = runtime::make_engine(runtime::preset_spec(framework), fx.costs, no_warmup);
    const auto metrics = engine->run_decode(fx.decode);
    print_stage(std::string("preset ") + runtime::to_string(framework) +
                    " decode, no warmup",
                *engine, metrics);
  }

  core::HybriMoeConfig tweaked = core::HybriMoeConfig::full();
  tweaked.mrs.alpha = 0.42;
  tweaked.prefetch.depth = 2;
  tweaked.prefetch.max_per_layer = 4;
  const std::vector<std::pair<std::string, core::HybriMoeConfig>> ablations{
      {"baseline", core::HybriMoeConfig::baseline()},
      {"scheduling_only", core::HybriMoeConfig::scheduling_only()},
      {"prefetching_only", core::HybriMoeConfig::prefetching_only()},
      {"caching_only", core::HybriMoeConfig::caching_only()},
      {"full", core::HybriMoeConfig::full()},
      {"tweaked", tweaked}};
  for (const auto& [name, config] : ablations)
    fx.print_prefill_decode("ablation " + name, runtime::ablation_spec(config));
}

workload::RequestStreamParams base_stream(double rate) {
  workload::RequestStreamParams p;
  p.num_requests = 24;
  p.arrival_rate = rate;
  p.prompt_tokens_min = 3;
  p.prompt_tokens_max = 12;
  p.decode_tokens_min = 2;
  p.decode_tokens_max = 6;
  p.seed = 17;
  return p;
}

void print_serve(const std::string& label, const workload::RequestStreamParams& params,
                 const runtime::ServeOptions& options) {
  runtime::ExperimentSpec spec;
  spec.model = moe::ModelConfig::tiny(4, 8, 2);
  spec.machine = hw::Topology::unit_test();
  spec.cache_ratio = 0.25;
  spec.trace.seed = 91;
  spec.warmup_steps = 8;
  runtime::ExperimentHarness harness(spec);
  const runtime::ServeMetrics m =
      harness.serve_stream(runtime::preset_spec(runtime::Framework::HybriMoE),
                           workload::generate_request_stream(params), options);

  JsonWriter::Inline line(std::cout);
  line.field("case").string("serve " + label);
  line.field("makespan").exact(m.makespan);
  write_stage(line, m.steps);
  line.field("requests").raw("[");
  for (std::size_t i = 0; i < m.requests.size(); ++i) {
    const runtime::RequestMetrics& r = m.requests[i];
    if (i > 0) std::cout << ", ";
    JsonWriter::Inline item(std::cout);
    item.field("id").number(r.id);
    item.field("rejected").boolean(r.rejected);
    item.field("arrival").exact(r.arrival);
    item.field("admit").exact(r.admit);
    item.field("first_token").exact(r.first_token);
    item.field("finish").exact(r.finish);
    item.field("generated_tokens").number(r.generated_tokens);
    item.field("preemptions").number(r.preemptions);
    item.field("tbt").exact_list(r.tbt);
    item.close();
  }
  line.raw("]");
  line.close();
  std::cout << '\n';
}

void print_serve_cases() {
  print_serve("single_tier_fifo", base_stream(4.0), runtime::ServeOptions{});

  runtime::ServeOptions tight;
  tight.max_batch = 3;
  tight.max_prefill_chunk = 4;
  print_serve("chunked_tight_batch", base_stream(8.0), tight);

  auto burst = base_stream(16.0);
  burst.process = workload::ArrivalProcess::Burst;
  burst.burst_size = 6;
  print_serve("burst", burst, runtime::ServeOptions{});

  auto diurnal = base_stream(8.0);
  diurnal.process = workload::ArrivalProcess::Diurnal;
  diurnal.diurnal_period = 2.0;
  diurnal.diurnal_amplitude = 0.8;
  print_serve("diurnal", diurnal, runtime::ServeOptions{});

  auto tiers = base_stream(32.0);
  tiers.vip_fraction = 0.25;
  tiers.best_effort_fraction = 0.25;
  runtime::ServeOptions preempt;
  preempt.max_prefill_chunk = 4;
  preempt.priority_admission = true;
  preempt.preemption = true;
  preempt.tiers[workload::priority_index(workload::Priority::Vip)].tbt_slo = 0.05;
  print_serve("priority_preemption", tiers, preempt);

  auto overload = base_stream(64.0);
  overload.vip_fraction = 0.25;
  overload.best_effort_fraction = 0.5;
  runtime::ServeOptions admission;
  admission.max_batch = 2;
  admission.priority_admission = true;
  admission.max_context_tokens = 16;  // rejects the longest requests outright
  auto& best_effort =
      admission.tiers[workload::priority_index(workload::Priority::BestEffort)];
  best_effort.ttft_deadline = 0.5;
  best_effort.queue_capacity = 3;
  print_serve("admission_rejection", overload, admission);

  // Arrivals spaced past single steps, so decode-only steps arm the
  // SLO-aware preemption before lower tiers' prompts arrive.
  auto spaced = base_stream(0.02);
  spaced.vip_fraction = 0.25;
  spaced.best_effort_fraction = 0.25;
  print_serve("preemption_spaced", spaced, preempt);

  // One batch slot and a two-deep best-effort queue: overflow rejects the
  // newest best-effort arrivals.
  auto crowded = base_stream(0.1);
  crowded.best_effort_fraction = 0.5;
  runtime::ServeOptions capped;
  capped.max_batch = 1;
  capped.tiers[workload::priority_index(workload::Priority::BestEffort)].queue_capacity = 2;
  print_serve("queue_overflow", crowded, capped);
}

void write_device(JsonWriter::Inline& line, const hw::ComputeDeviceParams& d) {
  line.field("flops").exact(d.flops);
  line.field("mem_bandwidth").exact(d.mem_bandwidth);
  line.field("launch_overhead").exact(d.launch_overhead);
  line.field("warmup_penalty").exact(d.warmup_penalty);
  line.field("flops_peak").exact(d.flops_peak);
  line.field("flops_ramp_half").exact(d.flops_ramp_half);
}

void print_topology(const std::string& label, const hw::Topology& topology) {
  JsonWriter::Inline line(std::cout);
  line.field("case").string("topology " + label);
  line.field("name").string(topology.name);
  line.field("cpu");
  JsonWriter::Inline cpu(std::cout);
  write_device(cpu, topology.cpu);
  cpu.close();
  line.field("accelerators").raw("[");
  for (std::size_t i = 0; i < topology.accelerators.size(); ++i) {
    const hw::AcceleratorProfile& accel = topology.accelerators[i];
    if (i > 0) std::cout << ", ";
    JsonWriter::Inline item(std::cout);
    item.field("name").string(accel.name);
    write_device(item, accel.compute);
    item.field("link_bandwidth").exact(accel.link.bandwidth);
    item.field("link_latency").exact(accel.link.latency);
    item.field("cache_share").exact(accel.cache_share);
    item.close();
  }
  line.raw("]");
  line.close();
  std::cout << '\n';
}

void print_topology_cases() {
  for (const std::string& name : runtime::topology_registry().names())
    print_topology("preset " + name, runtime::topology_registry().get(name)());

  const std::vector<std::pair<std::string, std::size_t>> overrides{
      {"a6000_xeon10", 3}, {"quad_sim", 2}, {"dual_a6000", 3}};
  for (const auto& [preset, devices] : overrides)
    print_topology("resolve " + preset + " devices=" + std::to_string(devices),
                   runtime::resolve_topology({.preset = preset, .devices = devices}));

  const moe::ModelConfig deepseek = moe::ModelConfig::deepseek();
  const hw::CostModel truth(hw::Topology::a6000_xeon10(), deepseek);
  util::Rng rng(101);
  const auto samples = hw::simulate_measurements(truth, rng, 8, 0.05);
  print_topology("fit a6000_xeon10 deepseek", hw::fit_topology(samples, deepseek));
}

}  // namespace

int main() {
  print_engine_cases();
  print_serve_cases();
  print_topology_cases();
  return 0;
}
