/// \file hybrimoe_run.cpp
/// Serve a request stream with any declarative stack — the CLI face of the
/// StackSpec API. The stack comes from a preset name, an inline JSON spec
/// or a spec file; the tool materialises a seeded request stream, serves it
/// with continuous batching and reports the request-level serving metrics
/// (TTFT/TBT tails, throughput, goodput under a TBT SLO).
///
///   hybrimoe_run HybriMoE --requests 16 --rate 2
///   hybrimoe_run '{"scheduler": "hybrid", "cache": "lru", "prefetch": "none"}'
///   hybrimoe_run @examples/stacks/hybrid_lru.json --model qwen2 --json out.json
///
/// `--list-stacks` prints the registered presets and component families;
/// `--print-spec` echoes the canonical JSON of the resolved stack (useful as
/// a starting point for a custom spec file). Exit codes: 0 success, 2 usage
/// or spec error.

#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/session.hpp"
#include "runtime/stack_registry.hpp"
#include "scenario/drivers.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"
#include "util/json_writer.hpp"
#include "util/table.hpp"
#include "workload/request_stream.hpp"

namespace {

using namespace hybrimoe;

constexpr const char* kUsage = R"(usage: hybrimoe_run [stack] [options]

  stack                 preset name (see --list-stacks), inline JSON spec
                        ('{...}'), or @path to a spec file
                        (default: HybriMoE)

options:
  --model NAME          deepseek | qwen2 | mixtral | tiny   (default deepseek)
  --topology NAME[:N]   topology preset, optional device-count override
                        (default: the spec's topology, else a6000_xeon10)
  --cache-ratio R       GPU expert cache ratio in [0,1]     (default 0.25)
  --requests N          number of requests in the stream    (default 12)
  --rate R              mean arrival rate, requests/second  (default 1.0)
  --arrival SHAPE       arrival process: poisson | burst | diurnal
                        (default poisson)
  --diurnal-period S    diurnal sinusoid period in seconds  (default 60)
  --diurnal-amplitude A relative diurnal rate swing in [0,1) (default 0.5)
  --seed N              stream + trace seed                 (default 42)
  --max-batch N         continuous-batching admission cap   (default 8)
  --chunk N             max prefill chunk tokens, 0 = whole (default 0)
  --slo S               TBT SLO in seconds for goodput      (default 0.1)
  --scenario ARG        fault-injection scenario: preset name (straggler_link,
                        device_loss, cache_thrash, overload_storm), inline
                        JSON ('{...}') or @path; overrides the spec's own
                        "scenario" entry
  --vip-frac F          fraction of requests drawn as VIP tier   (default 0)
  --be-frac F           fraction drawn as best-effort tier       (default 0)
  --priority            priority-aware admission (VIP before standard
                        before best-effort)
  --preempt             allow preempting a long prefill chunk when a
                        higher-tier decode would miss its TBT SLO
  --vip-slo S           VIP tier TBT SLO in seconds (enables SLO-aware
                        preemption; 0 = unset)
  --kv-budget MB|auto   enable KV-cache accounting with this budget in MB;
                        'auto' derives it from the resolved topology
                        (overrides the spec's "kv" entry)
  --kv-bytes-per-token B per-token KV footprint in bytes
                        (default: derived from the model)
  --admission MODE      KV admission policy: queue | reject | evict
                        (default queue; requires KV accounting)
  --exec MODE           execution backend: simulated | threaded | performance
                        (default: the spec's "exec" entry, else simulated).
                        threaded/performance attach a real executor; threaded
                        calibrates pacing to this host, performance runs the
                        kernels unpaced (measured latency = real wall time)
  --json PATH           write a machine-readable summary
  --trace PATH          stream a per-step JSONL trace of the run (schema
                        hybrimoe-trace v1; compare runs with
                        hybrimoe_compare)
  --print-spec          echo the canonical spec JSON and exit
  --list-stacks         list presets and registered components, then exit
  --help                this text
)";

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "hybrimoe_run: " << message << "\n" << kUsage;
  std::exit(2);
}

moe::ModelConfig model_from_name(const std::string& name) {
  if (name == "deepseek") return moe::ModelConfig::deepseek();
  if (name == "qwen2") return moe::ModelConfig::qwen2();
  if (name == "mixtral") return moe::ModelConfig::mixtral();
  if (name == "tiny") return moe::ModelConfig::tiny();
  throw std::invalid_argument(util::unknown_name_message(
      "model", name, {"deepseek", "mixtral", "qwen2", "tiny"}));
}

struct Options {
  std::string stack_arg = "HybriMoE";
  std::string model = "deepseek";
  std::string topology;  ///< "preset" or "preset:N"; empty = spec's choice
  double cache_ratio = 0.25;
  std::size_t requests = 12;
  double rate = 1.0;
  std::string arrival = "poisson";
  double diurnal_period = 60.0;
  double diurnal_amplitude = 0.5;
  std::uint64_t seed = 42;
  std::size_t max_batch = 8;
  std::size_t chunk = 0;
  double slo = 0.1;
  std::string scenario;  ///< empty = the spec's own "scenario" entry, if any
  double vip_frac = 0.0;
  double be_frac = 0.0;
  bool priority = false;
  bool preempt = false;
  double vip_slo = 0.0;
  std::string kv_budget;  ///< "" = off, "auto" = topology-derived, else MB
  double kv_bytes_per_token = 0.0;
  std::string admission;  ///< "" = queue (only meaningful with KV accounting)
  std::string exec;       ///< "" = the spec's "exec" entry, else simulated
  std::string json_path;
  std::string trace_path;
  bool print_spec = false;
};

Options parse_options(int argc, char** argv) {
  Options opts;
  bool stack_set = false;
  auto next = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc) usage_error(std::string(flag) + " requires an argument");
    return argv[++i];
  };
  // Numeric flags: a malformed value is a usage error (exit 2), not an
  // uncaught std::sto* exception.
  auto numeric = [&](const char* flag, const std::string& value, auto parse) {
    try {
      std::size_t consumed = 0;
      const auto parsed = parse(value, &consumed);
      if (consumed != value.size()) throw std::invalid_argument(value);
      return parsed;
    } catch (const std::exception&) {
      usage_error(std::string(flag) + " got non-numeric value '" + value + "'");
    }
  };
  auto to_double = [&](const char* flag, const std::string& v) {
    const double value = numeric(flag, v, [](const std::string& s, std::size_t* n) {
      return std::stod(s, n);
    });
    if (!std::isfinite(value))
      usage_error(std::string(flag) + " must be a finite number, got '" + v + "'");
    return value;
  };
  auto to_nonnegative = [&](const char* flag, const std::string& v) {
    const double value = to_double(flag, v);
    if (value < 0.0)
      usage_error(std::string(flag) + " must be non-negative, got '" + v + "'");
    return value;
  };
  // std::stoull accepts a sign and wraps "-3" to a huge count, so a '-'
  // anywhere in the value is rejected first.
  auto to_count = [&](const char* flag, const std::string& v) -> std::uint64_t {
    if (v.find('-') != std::string::npos)
      usage_error(std::string(flag) + " must be non-negative, got '" + v + "'");
    return numeric(flag, v, [](const std::string& s, std::size_t* n) {
      return std::stoull(s, n);
    });
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      std::exit(0);
    } else if (arg == "--list-stacks") {
      runtime::print_stack_catalog(std::cout);
      std::exit(0);
    } else if (arg == "--print-spec") {
      opts.print_spec = true;
    } else if (arg == "--arrival") {
      opts.arrival = next(i, "--arrival");
    } else if (arg == "--diurnal-period") {
      opts.diurnal_period = to_double("--diurnal-period", next(i, "--diurnal-period"));
    } else if (arg == "--diurnal-amplitude") {
      opts.diurnal_amplitude =
          to_double("--diurnal-amplitude", next(i, "--diurnal-amplitude"));
    } else if (arg == "--model") {
      opts.model = next(i, "--model");
    } else if (arg == "--topology") {
      opts.topology = next(i, "--topology");
    } else if (arg == "--cache-ratio") {
      opts.cache_ratio = to_double("--cache-ratio", next(i, "--cache-ratio"));
    } else if (arg == "--requests") {
      opts.requests = to_count("--requests", next(i, "--requests"));
    } else if (arg == "--rate") {
      opts.rate = to_double("--rate", next(i, "--rate"));
    } else if (arg == "--seed") {
      opts.seed = to_count("--seed", next(i, "--seed"));
    } else if (arg == "--max-batch") {
      opts.max_batch = to_count("--max-batch", next(i, "--max-batch"));
    } else if (arg == "--chunk") {
      opts.chunk = to_count("--chunk", next(i, "--chunk"));
    } else if (arg == "--slo") {
      opts.slo = to_double("--slo", next(i, "--slo"));
    } else if (arg == "--scenario") {
      opts.scenario = next(i, "--scenario");
    } else if (arg == "--vip-frac") {
      opts.vip_frac = to_double("--vip-frac", next(i, "--vip-frac"));
    } else if (arg == "--be-frac") {
      opts.be_frac = to_double("--be-frac", next(i, "--be-frac"));
    } else if (arg == "--priority") {
      opts.priority = true;
    } else if (arg == "--preempt") {
      opts.preempt = true;
    } else if (arg == "--vip-slo") {
      opts.vip_slo = to_nonnegative("--vip-slo", next(i, "--vip-slo"));
    } else if (arg == "--kv-budget") {
      opts.kv_budget = next(i, "--kv-budget");
      if (opts.kv_budget != "auto")
        (void)to_double("--kv-budget", opts.kv_budget);
    } else if (arg == "--kv-bytes-per-token") {
      opts.kv_bytes_per_token =
          to_nonnegative("--kv-bytes-per-token", next(i, "--kv-bytes-per-token"));
    } else if (arg == "--admission") {
      opts.admission = next(i, "--admission");
    } else if (arg == "--exec") {
      opts.exec = next(i, "--exec");
    } else if (arg == "--json") {
      opts.json_path = next(i, "--json");
    } else if (arg == "--trace") {
      opts.trace_path = next(i, "--trace");
    } else if (arg == "--stack") {
      opts.stack_arg = next(i, "--stack");
      stack_set = true;
    } else if (!arg.empty() && arg.front() == '-') {
      usage_error("unknown option '" + arg + "'");
    } else if (!stack_set) {
      opts.stack_arg = arg;
      stack_set = true;
    } else {
      usage_error("unexpected argument '" + arg + "'");
    }
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts = parse_options(argc, argv);

  runtime::StackSpec stack;
  try {
    stack = runtime::resolve_stack(opts.stack_arg);
    if (!opts.scenario.empty())
      stack.scenario = scenario::resolve_scenario(opts.scenario);
    stack.validate();
  } catch (const std::invalid_argument& e) {
    std::cerr << "hybrimoe_run: " << e.what() << "\n";
    return 2;
  }

  if (opts.print_spec) {
    std::cout << runtime::to_json(stack) << "\n";
    return 0;
  }

  try {
    // Device complement: --topology overrides the spec's own topology
    // section; either way the cost model is built from the resolved result.
    if (!opts.topology.empty()) {
      runtime::TopologySpec topo;
      const auto colon = opts.topology.find(':');
      topo.preset = opts.topology.substr(0, colon);
      if (colon != std::string::npos) {
        const std::string count = opts.topology.substr(colon + 1);
        try {
          std::size_t consumed = 0;
          topo.devices = std::stoul(count, &consumed);
          if (consumed != count.size()) throw std::invalid_argument(count);
        } catch (const std::exception&) {
          throw std::invalid_argument("--topology device count '" + count +
                                      "' is not a number");
        }
      }
      stack.topology = topo;
    }
    runtime::ExperimentSpec spec;
    spec.model = model_from_name(opts.model);
    spec.machine = runtime::resolve_topology(stack.topology);
    spec.cache_ratio = opts.cache_ratio;
    spec.trace.seed = opts.seed;
    runtime::ExperimentHarness harness(spec);

    // --exec overrides the spec's "exec" entry. Threaded/Performance need a
    // real executor, which a declarative spec alone cannot carry — build one
    // here and attach it before the harness builds any engine.
    if (!opts.exec.empty()) stack.execution = exec::execution_mode_from_name(opts.exec);
    const exec::ExecutionMode exec_mode =
        stack.execution.value_or(exec::ExecutionMode::Simulated);
    if (exec_mode != exec::ExecutionMode::Simulated) {
      exec::ExecOptions exec_options;
      if (exec_mode == exec::ExecutionMode::Threaded) {
        // Pacing must dominate real kernel time on this host: probe with a
        // default-built executor, then bake the calibrated scale in.
        exec::HybridExecutor probe;
        exec_options.time_scale = probe.calibrate_time_scale(harness.costs(), 4.0);
      }
      harness.set_execution(exec_mode,
                            std::make_shared<exec::HybridExecutor>(exec_options));
    }

    workload::RequestStreamParams stream;
    stream.num_requests = opts.requests;
    stream.arrival_rate = opts.rate;
    stream.process = workload::arrival_from_name(opts.arrival);
    stream.diurnal_period = opts.diurnal_period;
    stream.diurnal_amplitude = opts.diurnal_amplitude;
    stream.seed = opts.seed;
    stream.vip_fraction = opts.vip_frac;
    stream.best_effort_fraction = opts.be_frac;
    auto request_specs = workload::generate_request_stream(stream);
    if (stack.scenario.has_value())
      request_specs =
          scenario::shape_stream(std::move(request_specs), *stack.scenario);

    runtime::ServeOptions serve_options;
    serve_options.max_batch = opts.max_batch;
    serve_options.max_prefill_chunk = opts.chunk;
    serve_options.priority_admission = opts.priority;
    serve_options.preemption = opts.preempt;
    if (opts.vip_slo > 0.0)
      serve_options.tiers[workload::priority_index(workload::Priority::Vip)]
          .tbt_slo = opts.vip_slo;

    // KV accounting: --kv-budget overrides the spec's "kv" entry; 'auto'
    // derives the budget from the resolved topology. The mode/footprint
    // flags refine whichever KvSpec is in force.
    if (!opts.kv_budget.empty()) {
      serve_sim::KvSpec kv;
      kv.budget_mb = opts.kv_budget == "auto"
                         ? serve_sim::derived_kv_budget_mb(spec.machine)
                         : std::stod(opts.kv_budget);
      stack.kv = kv;
    }
    if (!opts.admission.empty() || opts.kv_bytes_per_token > 0.0) {
      if (!stack.kv.has_value())
        throw std::invalid_argument(
            "--admission/--kv-bytes-per-token need KV accounting — pass "
            "--kv-budget or a spec with a \"kv\" entry");
      if (!opts.admission.empty())
        stack.kv->mode = serve_sim::admission_from_name(opts.admission);
      if (opts.kv_bytes_per_token > 0.0)
        stack.kv->bytes_per_token = opts.kv_bytes_per_token;
    }

    // --trace: stream the run's per-step/per-event records as JSONL. The
    // recorder is an observer, so traced and untraced runs report identical
    // metrics; without --trace and without a scenario the hook stays null
    // and the serving core keeps its bit-identical fast path.
    std::ofstream trace_stream;
    std::optional<trace::OstreamSink> trace_sink;
    std::optional<trace::Recorder> recorder;
    if (!opts.trace_path.empty()) {
      trace_stream.open(opts.trace_path);
      if (!trace_stream) {
        std::cerr << "hybrimoe_run: cannot write '" << opts.trace_path << "'\n";
        return 2;
      }
      trace_sink.emplace(trace_stream);
      trace::RecorderConfig config;
      config.costs = &harness.costs();
      config.expert_bytes = static_cast<double>(spec.model.routed_expert_bytes());
      config.sink = &*trace_sink;
      config.stack = stack.display_name();
      config.model = spec.model.name;
      config.seed = opts.seed;
      config.devices = spec.machine.num_accelerators();
      recorder.emplace(std::move(config));
    }

    // The scenario driver shares the harness's cost model with the engines
    // the harness builds, so its before_step mutations are seen by the run.
    // With both a scenario and --trace, the driver delegates its recording
    // to the streaming recorder — one hook, one trace.
    std::optional<scenario::ScenarioDriver> driver;
    if (stack.scenario.has_value()) {
      driver.emplace(*stack.scenario, harness.mutable_costs(),
                     recorder.has_value() ? &*recorder : nullptr);
      serve_options.hook = &*driver;
    } else if (recorder.has_value()) {
      serve_options.hook = &*recorder;
    }

    std::cout << "stack   : " << stack.display_name() << "\n"
              << "spec    : " << runtime::to_json(stack) << "\n"
              << "model   : " << spec.model.name << " @ "
              << opts.cache_ratio * 100 << "% cache\n"
              << "topology: " << spec.machine.name << " ("
              << spec.machine.num_accelerators() << " accelerator(s))\n"
              << "stream  : " << opts.requests << " requests, "
              << to_string(stream.process) << " arrivals @ " << opts.rate
              << " req/s, seed " << opts.seed << "\n";
    if (stack.scenario.has_value())
      std::cout << "scenario: " << scenario::to_json(*stack.scenario) << "\n";
    std::cout << "\n";

    const auto metrics = harness.serve_stream(stack, request_specs, serve_options);

    // A fully shed stream (tight KV budget under reject admission) has no
    // latency samples — report zeros instead of tripping the accessors'
    // preconditions.
    runtime::ServeMetrics::TailSummary ttft{};
    runtime::ServeMetrics::TailSummary tbt{};
    if (metrics.finished_count() > 0) ttft = metrics.ttft_tails();
    if (!metrics.tbts().empty()) tbt = metrics.tbt_tails();
    util::TextTable table("serving results — " + stack.display_name());
    table.set_headers({"metric", "value"});
    auto row = [&table](const std::string& k, const std::string& v) {
      table.begin_row().add_cell(k).add_cell(v);
    };
    row("requests finished", std::to_string(metrics.finished_count()));
    if (metrics.rejected_count() > 0)
      row("requests rejected", std::to_string(metrics.rejected_count()));
    row("output tokens", std::to_string(metrics.total_generated_tokens()));
    row("makespan", util::format_seconds(metrics.makespan));
    row("throughput", util::format_double(metrics.throughput(), 2) + " tok/s");
    row("goodput (p95 TBT <= " + util::format_seconds(opts.slo) + ")",
        util::format_double(metrics.goodput(opts.slo), 2) + " tok/s");
    row("TTFT p50/p95/p99", util::format_seconds(ttft.p50) + " / " +
                                util::format_seconds(ttft.p95) + " / " +
                                util::format_seconds(ttft.p99));
    row("TBT p50/p95/p99", util::format_seconds(tbt.p50) + " / " +
                               util::format_seconds(tbt.p95) + " / " +
                               util::format_seconds(tbt.p99));
    if (metrics.kv.budget_bytes > 0.0) {
      row("KV budget / peak",
          util::format_double(metrics.kv.budget_bytes / 1e6, 1) + " MB / " +
              util::format_double(metrics.kv.peak_bytes / 1e6, 1) + " MB");
      row("KV rejects / evictions", std::to_string(metrics.kv.rejected) + " / " +
                                        std::to_string(metrics.kv.evictions));
    }
    row("cache hit rate",
        util::format_double(metrics.steps.cache.hit_rate() * 100.0, 1) + "%");
    row("transfers / prefetches / maintenance",
        std::to_string(metrics.steps.transfers) + " / " +
            std::to_string(metrics.steps.prefetches) + " / " +
            std::to_string(metrics.steps.maintenance));
    std::ostringstream digest_hex;
    digest_hex << "0x" << std::hex << std::uppercase << metrics.steps.exec_digest;
    if (exec_mode != exec::ExecutionMode::Simulated) {
      row("exec mode", exec::to_string(exec_mode));
      row("measured latency", util::format_seconds(metrics.steps.measured_latency));
      row("exec digest", digest_hex.str());
    }
    table.print(std::cout);

    if (recorder.has_value()) {
      recorder->write_summary(metrics);
      std::cout << "\nWrote " << opts.trace_path << "\n";
    }

    if (!opts.json_path.empty()) {
      std::ofstream json(opts.json_path);
      if (!json) {
        std::cerr << "hybrimoe_run: cannot write '" << opts.json_path << "'\n";
        return 2;
      }
      util::JsonWriter w(json);
      w.field("tool").string("hybrimoe_run");
      w.field("stack").string(stack.display_name());
      w.field("spec").raw(runtime::to_json(stack));
      w.field("model").string(spec.model.name);
      w.field("cache_ratio").number(opts.cache_ratio);
      w.field("requests").number(metrics.finished_count());
      w.field("output_tokens").number(metrics.total_generated_tokens());
      w.field("makespan_s").number(metrics.makespan);
      w.field("throughput_tok_s").number(metrics.throughput());
      w.field("goodput_tok_s").number(metrics.goodput(opts.slo));
      w.field("tbt_slo_s").number(opts.slo);
      w.field("ttft_p50_s").number(ttft.p50);
      w.field("ttft_p95_s").number(ttft.p95);
      w.field("ttft_p99_s").number(ttft.p99);
      w.field("tbt_p50_s").number(tbt.p50);
      w.field("tbt_p95_s").number(tbt.p95);
      w.field("tbt_p99_s").number(tbt.p99);
      w.field("cache_hit_rate").number(metrics.steps.cache.hit_rate());
      // New fields are gated so KV-free (and diurnal-free) artifacts stay
      // byte-identical to the pre-event-engine schema bench_priority_isolation
      // and the golden regression tests consume.
      if (stream.process == workload::ArrivalProcess::Diurnal) {
        w.field("arrival").string("diurnal");
        w.field("diurnal_period_s").number(stream.diurnal_period);
        w.field("diurnal_amplitude").number(stream.diurnal_amplitude);
      }
      if (metrics.kv.budget_bytes > 0.0) {
        w.field("requests_rejected").number(metrics.rejected_count());
        w.field("kv_budget_mb").number(metrics.kv.budget_bytes / 1e6);
        w.field("kv_peak_mb").number(metrics.kv.peak_bytes / 1e6);
        w.field("kv_rejected").number(metrics.kv.rejected);
        w.field("kv_evictions").number(metrics.kv.evictions);
        w.field("admission").string(serve_sim::to_string(stack.kv->mode));
      }
      // Execution fields are gated the same way: simulated-mode artifacts
      // (every committed golden) stay byte-identical to the prior schema.
      if (exec_mode != exec::ExecutionMode::Simulated) {
        w.field("exec").string(exec::to_string(exec_mode));
        w.field("measured_latency_s").number(metrics.steps.measured_latency);
        w.field("exec_digest").string(digest_hex.str());
      }
      w.finish();
      std::cout << "\nWrote " << opts.json_path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "hybrimoe_run: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
