/// \file main.cpp
/// hybrimoe_bench — the repository's end-to-end benchmark. One process runs
/// one workload: it builds the experiment (timed as set-up), serves one
/// fixed request stream a fixed number of times through the public serving
/// API, checks every serve's output, and prints one metric per line
/// followed by a one-line JSON result. `--trace 1` instead runs traced and
/// untraced serves in alternation and reports per-layer numbers taken from
/// outside the library (probes.hpp). `--agree A B` compares two directories
/// of runs against the bounds in BENCHMARK.json.
/// See bench/e2e/README.md for the workloads and the metric glossary.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "agree.hpp"
#include "exec/executor.hpp"
#include "kernels/simd.hpp"
#include "probes.hpp"
#include "runtime/session.hpp"
#include "serve_sim/kv.hpp"
#include "util/json.hpp"
#include "util/json_writer.hpp"
#include "util/stats.hpp"
#include "workload/request_stream.hpp"

namespace hybrimoe::e2e {
namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

constexpr std::uint64_t kDefaultSeed = 20250408;  // arXiv date of the paper
constexpr std::uint64_t kStreamSeed = 42;
/// Set-ups timed per run; setup_s is their median.
constexpr std::size_t kSetups = 3;
/// Requests served twice (reference and Performance mode) for the digest
/// check of the execution workload.
constexpr std::size_t kDigestRequests = 4;

/// One benchmark workload: the model, the request stream shape and the
/// serving options. Every workload runs the HybriMoE preset with a 25%
/// expert cache on the paper testbed topology (a6000_xeon10).
struct Workload {
  std::string name;
  moe::ModelConfig model;
  workload::RequestStreamParams stream;
  runtime::ServeOptions options;
  /// Run the plans on real threads (ExecutionMode::Performance).
  bool execute = false;
  /// Wall seconds of one round (an untraced and a step-timed serve) on the
  /// reference host, a shared 4-vCPU AVX2 VM. A run serves
  /// --seconds / round_seconds rounds: a count fixed by the workload and
  /// the run length, never by the measured speed, so both sides of a
  /// comparison take their minima over the same number of serves.
  double round_seconds = 1.0;
};

/// Functional geometry of the execution workload: fp32 experts whose 256
/// weights + transfer blobs (~400 MB) exceed the last-level cache, so CPU
/// experts are memory-bound as in the paper.
exec::ExecOptions exec_options() {
  exec::ExecOptions o;
  o.workers = 1;  // engine + 1 worker + 1 copy thread: 3 threads on 4 cores
  o.time_scale = 1.0;
  o.d_model = 512;
  o.d_ff = 128;
  return o;
}

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  {
    Workload w;
    w.name = "decode_deepseek";
    w.model = moe::ModelConfig::deepseek();
    w.stream.num_requests = 10;
    w.stream.arrival_rate = 1.0;
    w.stream.prompt_tokens_min = 16;
    w.stream.prompt_tokens_max = 64;
    w.stream.decode_tokens_min = 32;
    w.stream.decode_tokens_max = 64;
    w.options.max_batch = 8;
    w.round_seconds = 4.5;
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "prefill_deepseek";
    w.model = moe::ModelConfig::deepseek();
    w.stream.num_requests = 8;
    w.stream.arrival_rate = 0.5;
    w.stream.prompt_tokens_min = 128;
    w.stream.prompt_tokens_max = 256;
    w.stream.decode_tokens_min = 1;
    w.stream.decode_tokens_max = 2;
    w.options.max_prefill_chunk = 128;
    w.round_seconds = 4.5;
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "serve_tiny_saturated";
    w.model = moe::ModelConfig::tiny();
    w.stream.num_requests = 1500;
    w.stream.arrival_rate = 750.0;
    w.stream.prompt_tokens_min = 16;
    w.stream.prompt_tokens_max = 48;
    w.stream.decode_tokens_min = 6;
    w.stream.decode_tokens_max = 12;
    w.options.max_batch = 8;
    w.options.max_prefill_chunk = 16;
    // A budget of six max-size requests: below max_batch, so the saturated
    // stream sheds under reject admission.
    const double bytes_per_token = serve_sim::model_kv_bytes_per_token(w.model);
    w.options.kv.bytes_per_token = bytes_per_token;
    w.options.kv.budget_mb = 360.0 * bytes_per_token / 1.0e6;
    w.options.kv.mode = serve_sim::AdmissionMode::Reject;
    w.round_seconds = 1.6;
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "exec_mixtral_perf";
    w.model = moe::ModelConfig::mixtral();
    w.stream.num_requests = 4;
    w.stream.arrival_rate = 0.2;
    w.stream.prompt_tokens_min = 16;
    w.stream.prompt_tokens_max = 32;
    w.stream.decode_tokens_min = 32;
    w.stream.decode_tokens_max = 64;
    w.options.max_batch = 4;
    w.execute = true;
    w.round_seconds = 3.4;
    out.push_back(std::move(w));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Everything a workload's serves run against.
struct Env {
  std::unique_ptr<runtime::ExperimentHarness> harness;
  std::vector<workload::RequestSpec> specs;
  std::shared_ptr<exec::HybridExecutor> executor;
};

Env set_up(const Workload& w, const runtime::StackSpec& stack, std::uint64_t seed) {
  runtime::ExperimentSpec spec;
  spec.model = w.model;
  spec.machine = hw::MachineProfile::a6000_xeon10();
  spec.cache_ratio = 0.25;
  spec.trace.seed = seed;
  Env env;
  env.harness = std::make_unique<runtime::ExperimentHarness>(std::move(spec));
  // Arrival times and request lengths are part of the workload, the same
  // for every seed; --seed draws the routing traces.
  workload::RequestStreamParams stream = w.stream;
  stream.seed = kStreamSeed;
  env.specs = workload::generate_request_stream(stream);
  if (w.execute) {
    env.executor = std::make_shared<exec::HybridExecutor>(exec_options());
    // Materialise every expert's weights and transfer blob up front, so
    // the timed serves measure kernels and copies, not first-touch page
    // faults and weight generation.
    exec::ExpertStore& store = env.executor->store();
    for (std::size_t l = 0; l < w.model.num_layers; ++l) {
      (void)store.layer_input(static_cast<std::uint16_t>(l));
      for (std::size_t e = 0; e < w.model.num_routed_experts; ++e) {
        const moe::ExpertId id{static_cast<std::uint16_t>(l),
                               static_cast<std::uint16_t>(e)};
        (void)store.weights(id);
        (void)store.transfer_blob(id);
      }
    }
    env.harness->set_execution(exec::ExecutionMode::Performance, env.executor);
    // Warm-up: starts the pool and copy threads and sizes their buffers.
    const std::span<const workload::RequestSpec> first(
        env.specs.data(), std::min<std::size_t>(2, env.specs.size()));
    (void)env.harness->serve_stream(stack, first, w.options);
  }
  return env;
}

// ---------------------------------------------------------------------------
// One serve
// ---------------------------------------------------------------------------

/// The modeled outcome of a serve. Deterministic in (workload, seed): every
/// serve of a run, traced or not, must reproduce it bit for bit.
struct Summary {
  std::size_t offered = 0;
  std::size_t finished = 0;
  std::size_t rejected = 0;
  std::size_t steps = 0;
  double makespan = 0.0;
  double busy = 0.0;  ///< summed modeled step latency
  double ttft_p50 = 0.0;
  double tbt_p50 = 0.0;
  double queue_mean = 0.0;
  double kv_peak_bytes = 0.0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_evictions = 0;
  std::size_t uploads = 0;  ///< on-demand + prefetch + maintenance
  std::uint64_t digest = 0;

  bool operator==(const Summary&) const = default;
};

double percentile_or_zero(const std::vector<double>& v, double q) {
  return v.empty() ? 0.0 : util::percentile(v, q);
}

Summary summarize(const runtime::ServeMetrics& m) {
  Summary s;
  s.offered = m.requests.size();
  s.finished = m.finished_count();
  s.rejected = m.rejected_count();
  s.steps = m.steps.per_forward.size();
  s.makespan = m.makespan;
  s.busy = m.steps.total_latency;
  s.ttft_p50 = percentile_or_zero(m.ttfts(), 50.0);
  s.tbt_p50 = percentile_or_zero(m.tbts(), 50.0);
  const std::vector<double> queueing = m.queueing_delays();
  for (const double d : queueing) s.queue_mean += d;
  if (!queueing.empty()) s.queue_mean /= static_cast<double>(queueing.size());
  s.kv_peak_bytes = m.kv.peak_bytes;
  s.cache_hits = m.steps.cache.hits;
  s.cache_misses = m.steps.cache.misses;
  s.cache_evictions = m.steps.cache.evictions;
  s.uploads = m.steps.transfers + m.steps.prefetches + m.steps.maintenance;
  s.digest = m.steps.exec_digest;
  return s;
}

/// Every offered request must end finished with exactly its budgeted
/// tokens, or rejected with none. Returns the first violation, or "".
std::string check_requests(std::span<const workload::RequestSpec> specs,
                           const runtime::ServeMetrics& m) {
  if (m.requests.size() != specs.size())
    return "served " + std::to_string(m.requests.size()) + " of " +
           std::to_string(specs.size()) + " offered requests";
  std::map<std::uint64_t, const workload::RequestSpec*> by_id;
  for (const auto& s : specs) by_id[s.id] = &s;
  for (const auto& r : m.requests) {
    const auto it = by_id.find(r.id);
    if (it == by_id.end()) return "request " + std::to_string(r.id) + " was never offered";
    const workload::RequestSpec& spec = *it->second;
    const std::size_t expected =
        r.rejected ? 0 : (spec.prompt_tokens > 0 ? 1 : 0) + spec.decode_tokens;
    if (r.generated_tokens != expected)
      return "request " + std::to_string(r.id) + " emitted " +
             std::to_string(r.generated_tokens) + " tokens, expected " +
             std::to_string(expected);
    by_id.erase(it);
  }
  return "";
}

/// Wall-clock and probe readings of one serve.
struct Sample {
  double wall = 0.0;
  Summary summary;
  std::string error;  ///< check_requests violation, "" when correct
  std::vector<std::uint64_t> admitted;  ///< ids of the requests not rejected
  // Filled only by step-timed serves:
  std::vector<double> step_seconds;
  std::uint64_t events = 0;
  double batch_mean = 0.0;
  double window = 0.0;  ///< Performance-mode layer windows (wall seconds)
  std::uint64_t copies = 0;
  LayerCounters layers;  ///< filled only by traced serves
};

std::uint64_t copies_completed(const exec::HybridExecutor* executor) {
  if (executor == nullptr) return 0;
  std::uint64_t total = 0;
  for (std::size_t link = 0; link < executor->num_links(); ++link)
    total += executor->link_transfers_completed(link);
  return total;
}

/// Serve the whole stream once. Without `time_steps` the serve installs no
/// hook and takes the serving core's hook-free step path, as real serving
/// does. With it, a StepTimer records every step, and the core copies each
/// single-part step's trace for the hook.
Sample serve_once(Env& env, const runtime::StackSpec& stack,
                  const runtime::ServeOptions& base, bool time_steps,
                  LayerCounters* counters) {
  StepTimer timer;
  runtime::ServeOptions options = base;
  options.hook = time_steps ? &timer : nullptr;
  if (counters != nullptr) *counters = LayerCounters{};
  const std::uint64_t copies_before = copies_completed(env.executor.get());
  const Clock::time_point start = Clock::now();
  const runtime::ServeMetrics metrics = env.harness->serve_stream(stack, env.specs, options);
  Sample s;
  s.wall = seconds_between(start, Clock::now());
  s.summary = summarize(metrics);
  s.error = check_requests(env.specs, metrics);
  for (const auto& r : metrics.requests)
    if (!r.rejected) s.admitted.push_back(r.id);
  s.step_seconds = timer.step_seconds();
  s.events = timer.events();
  s.batch_mean = timer.batch_mean();
  s.window = metrics.steps.measured_latency;
  s.copies = copies_completed(env.executor.get()) - copies_before;
  if (counters != nullptr) s.layers = std::move(*counters);
  return s;
}

/// Reference-vs-Performance digest check on the first requests of the
/// execution workload: scheduling and threading may only move computation.
std::string check_digest(Env& env, const runtime::StackSpec& stack,
                         const runtime::ServeOptions& options) {
  const std::span<const workload::RequestSpec> first(
      env.specs.data(), std::min(kDigestRequests, env.specs.size()));
  env.harness->set_execution(exec::ExecutionMode::Simulated, env.executor);
  const std::uint64_t reference =
      env.harness->serve_stream(stack, first, options).steps.exec_digest;
  env.harness->set_execution(exec::ExecutionMode::Performance, env.executor);
  const std::uint64_t performance =
      env.harness->serve_stream(stack, first, options).steps.exec_digest;
  if (reference == 0 || reference != performance) {
    std::ostringstream os;
    os << "exec digest mismatch: reference " << std::hex << reference
       << ", performance " << performance;
    return os.str();
  }
  return "";
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident set of the process. ru_maxrss survives exec, so it also
/// covers the launcher's high-water mark: start the benchmark as a child of
/// a small process (run.sh does), not by exec from a large one.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct RunMeta {
  std::string git = "unknown";
  bool dirty = false;
  std::uint64_t seed = kDefaultSeed;
};

std::string run_meta_json(const RunMeta& meta) {
  std::ostringstream os;
  util::JsonWriter::Inline w(os);
  w.field("git").string(meta.git);
  w.field("dirty").boolean(meta.dirty);
#if defined(__clang__)
  w.field("compiler").string(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  w.field("compiler").string(std::string("gcc ") + __VERSION__);
#else
  w.field("compiler").string("unknown");
#endif
  w.field("build_type").string(HYBRIMOE_BENCH_BUILD_TYPE);
  w.field("isa_detected").string(kernels::simd::to_string(kernels::simd::detected_level()));
  w.field("isa_active").string(kernels::simd::to_string(kernels::simd::active_level()));
  w.field("nproc").number(std::thread::hardware_concurrency());
  char host[256] = {};
  gethostname(host, sizeof(host) - 1);
  w.field("host").string(host);
  w.field("seed").number(meta.seed);
  w.close();
  return os.str();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  util::JsonWriter::Inline w(os);
  for (const Metric& m : metrics) {
    std::ostringstream item;
    util::JsonWriter::Inline v(item);
    v.field("value").exact(m.value);
    v.field("unit").string(m.unit);
    v.close();
    w.field(m.name).raw(item.str());
  }
  w.close();
  return os.str();
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  double seconds = 0.0;  ///< run length, BENCHMARK.json's run_seconds
  bool trace = false;
  std::string out;
  RunMeta meta;
};

struct Outcome {
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// Count one serve into `out`: it must pass its request check and
/// reproduce `ref`, the run's first modeled summary. Only the first failure
/// is recorded; any failure counts every request of the run as failed.
void account(const Sample& s, const Summary& ref, Outcome& out) {
  out.attempted += s.summary.offered;
  if (!out.errors.empty()) return;
  if (!s.error.empty()) out.errors.push_back(s.error);
  else if (!(s.summary == ref))
    out.errors.push_back("modeled summary differs between serves of one stream");
}

/// Fold one serve's step wall times into `minima`, each step's minimum over
/// the run's step-timed serves. Every serve replays the identical step
/// sequence (account() checks it) and interference only ever adds time, so
/// the minimum is a step's cost with interference removed.
void fold_step_minima(std::vector<double>& minima, const std::vector<double>& steps) {
  if (minima.empty()) {
    minima = steps;
    return;
  }
  for (std::size_t i = 0; i < minima.size() && i < steps.size(); ++i)
    minima[i] = std::min(minima[i], steps[i]);
}

/// Rounds a run serves (see Workload::round_seconds); at least one per
/// set-up.
std::size_t round_count(const Workload& w, const Options& opt) {
  return std::max<std::size_t>(
      kSetups, static_cast<std::size_t>(std::llround(opt.seconds / w.round_seconds)));
}

/// Untraced run: end-to-end metrics. Each round serves the stream once
/// without a hook, for req_per_s, and once step-timed, for the step
/// percentiles.
Outcome run_plain(const Workload& w, const runtime::StackSpec& stack, const Options& opt) {
  // Nothing per serve is kept: peak_rss_mb must not grow with the number
  // of serves in the run.
  Outcome out;
  Env env;
  std::vector<double> setups;
  Summary ref;
  std::vector<double> steps;
  double fastest = std::numeric_limits<double>::infinity();
  const std::size_t rounds = round_count(w, opt);
  for (std::size_t n = 0; n < rounds; ++n) {
    // The set-ups are spread evenly over the run, so no burst of host noise
    // decides their median. Each one replaces the serving environment.
    if (setups.size() < kSetups && n * kSetups >= setups.size() * rounds) {
      env = Env{};  // the previous set-up is torn down outside the timing
      const Clock::time_point start = Clock::now();
      env = set_up(w, stack, opt.meta.seed);
      setups.push_back(seconds_between(start, Clock::now()));
    }
    const Sample plain = serve_once(env, stack, w.options, false, nullptr);
    if (n == 0) ref = plain.summary;
    account(plain, ref, out);
    // The host is shared: interference only ever slows a serve down, so the
    // fastest of the run's identical serves is the steadiest reading.
    fastest = std::min(fastest, plain.wall);
    const Sample timed = serve_once(env, stack, w.options, true, nullptr);
    account(timed, ref, out);
    fold_step_minima(steps, timed.step_seconds);
  }
  if (w.execute) {
    if (std::string e = check_digest(env, stack, w.options); !e.empty())
      out.errors.push_back(e);
  }
  if (!out.errors.empty()) out.failed = out.attempted;

  out.metrics = {
      {"setup_s", percentile_or_zero(setups, 50.0), "s"},
      {"req_per_s", static_cast<double>(ref.offered) / fastest, "1/s"},
      {"step_p50_ms", percentile_or_zero(steps, 50.0) * 1e3, "ms"},
      {"step_p90_ms", percentile_or_zero(steps, 90.0) * 1e3, "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"served_share", ratio(static_cast<double>(ref.finished), static_cast<double>(ref.offered)), "ratio"},
      {"model_ttft_p50_s", ref.ttft_p50, "s"},
      {"model_tbt_p50_s", ref.tbt_p50, "s"},
      {"model_busy_s", ref.busy, "s"},
  };
  return out;
}

/// Traced run: untraced serves (no hook) and traced serves alternate, as
/// many rounds as an untraced run; per-layer metrics come from the fastest
/// traced serve.
Outcome run_traced(const Workload& w, const runtime::StackSpec& stack,
                   LayerCounters& counters, const Options& opt) {
  Env env = set_up(w, stack, opt.meta.seed);
  const runtime::StackSpec traced = timed_spec(stack);

  // workload: the trace synthesis a serve does lazily, replayed for every
  // request it admitted (same per-request seeds, so the same work). One
  // replay follows each traced serve, so replays meet the same host
  // conditions as the serves they are set against, and the fastest counts.
  workload::TraceGenerator generator(w.model, env.harness->spec().trace);
  std::size_t forwards = 0;
  double materialize_s = std::numeric_limits<double>::infinity();

  Outcome out;
  std::vector<Sample> plain, timed;
  for (std::size_t n = round_count(w, opt); n > 0; --n) {
    plain.push_back(serve_once(env, stack, w.options, false, nullptr));
    timed.push_back(serve_once(env, traced, w.options, true, &counters));
    forwards = 0;
    const Clock::time_point replay_start = Clock::now();
    for (const std::uint64_t id : timed.back().admitted) {
      const workload::RequestSpec& spec = env.specs[id];
      const auto requests = runtime::materialize_requests(
          generator, std::span(&spec, 1), w.options.max_prefill_chunk);
      forwards += requests.front().prefill_chunks.size() + requests.front().decode.num_steps();
    }
    materialize_s = std::min(materialize_s, seconds_between(replay_start, Clock::now()));
  }
  const Summary& ref = plain.front().summary;
  for (const auto* set : {&plain, &timed})
    for (const Sample& s : *set) account(s, ref, out);

  // As in the untraced run, the fastest serve is the least disturbed one.
  const auto by_wall = [](const Sample& a, const Sample& b) { return a.wall < b.wall; };
  const Sample& untraced = *std::min_element(plain.begin(), plain.end(), by_wall);
  const Sample& t = *std::min_element(timed.begin(), timed.end(), by_wall);
  const LayerCounters& c = t.layers;

  double step_s = 0.0;
  for (const double s : t.step_seconds) step_s += s;
  const double exec_s = t.window;
  const double runtime_self =
      step_s - c.schedule.seconds - c.plan.seconds - c.policy.seconds - exec_s -
      c.probe_seconds;
  const double serve_sim_self = t.wall - step_s - materialize_s;
  const double covered = std::max(0.0, runtime_self) + c.schedule.seconds +
                         c.plan.seconds + c.policy.seconds + exec_s + materialize_s +
                         std::max(0.0, serve_sim_self);

  const double expert_bytes =
      w.execute ? static_cast<double>(env.executor->store().expert_bytes()) : 0.0;
  const exec::ExecOptions eo = exec_options();
  const double expert_flops =
      w.execute ? 2.0 * 3.0 * static_cast<double>(eo.d_model * eo.d_ff) : 0.0;
  const double forwards_run = w.execute ? static_cast<double>(c.tasks) : 0.0;

  out.metrics = {
      {"core.plan_calls", static_cast<double>(c.plan.calls), "count"},
      {"core.plan_s", c.plan.seconds, "s"},
      {"core.us_per_plan", ratio(c.plan.seconds * 1e6, static_cast<double>(c.plan.calls)), "us"},
      {"core.decisions", static_cast<double>(c.decisions), "count"},
      {"core.prefetch_hit_ratio", ratio(static_cast<double>(c.prefetch_hits), static_cast<double>(c.decisions)), "ratio"},
      {"workload.materialize_s", materialize_s, "s"},
      {"workload.forwards", static_cast<double>(forwards), "count"},
      {"workload.us_per_forward", ratio(materialize_s * 1e6, static_cast<double>(forwards)), "us"},
      {"runtime.steps", static_cast<double>(t.step_seconds.size()), "count"},
      {"runtime.step_s", step_s, "s"},
      {"runtime.step_p50_us", percentile_or_zero(t.step_seconds, 50.0) * 1e6, "us"},
      {"runtime.step_p99_us", percentile_or_zero(t.step_seconds, 99.0) * 1e6, "us"},
      {"runtime.batch_mean", t.batch_mean, "count"},
      {"runtime.self_s", runtime_self, "s"},
      {"sched.calls", static_cast<double>(c.schedule.calls), "count"},
      {"sched.s", c.schedule.seconds, "s"},
      {"sched.ns_per_call", ratio(c.schedule.seconds * 1e9, static_cast<double>(c.schedule.calls)), "ns"},
      {"sched.cpu_task_share", ratio(static_cast<double>(c.cpu_tasks), static_cast<double>(c.tasks)), "ratio"},
      {"sched.on_demand_transfers", static_cast<double>(c.on_demand), "count"},
      {"sched.invalid_plans", static_cast<double>(c.invalid_plans), "count"},
      {"cache.hit_rate", ratio(static_cast<double>(ref.cache_hits), static_cast<double>(ref.cache_hits + ref.cache_misses)), "ratio"},
      {"cache.evictions", static_cast<double>(ref.cache_evictions), "count"},
      {"cache.victim_calls", static_cast<double>(c.victim.calls), "count"},
      {"cache.victim_s", c.victim.seconds, "s"},
      {"cache.scores_s", c.scores.seconds, "s"},
      {"cache.policy_s", c.policy.seconds, "s"},
      {"serve_sim.events", static_cast<double>(t.events), "count"},
      {"serve_sim.events_per_s", ratio(static_cast<double>(t.events), t.wall), "1/s"},
      {"serve_sim.self_s", serve_sim_self, "s"},
      {"serve_sim.rejected", static_cast<double>(ref.rejected), "count"},
      {"serve_sim.kv_peak_mb", ref.kv_peak_bytes / 1e6, "MB"},
      {"serve_sim.queue_wait_mean_s", ref.queue_mean, "s"},
      {"exec.window_share", ratio(exec_s, step_s), "ratio"},
      {"exec.copies", static_cast<double>(t.copies), "count"},
      {"exec.copy_gb", static_cast<double>(t.copies) * expert_bytes / 1e9, "GB"},
      {"kernels.expert_forwards", forwards_run, "count"},
      {"kernels.gflop", forwards_run * expert_flops / 1e9, "GFLOP"},
      {"kernels.weight_gb", forwards_run * expert_bytes / 1e9, "GB"},
      {"kernels.gflop_per_s", ratio(forwards_run * expert_flops / 1e9, exec_s), "GFLOP/s"},
      {"kernels.gb_per_s", ratio(forwards_run * expert_bytes / 1e9, exec_s), "GB/s"},
      {"bench.trace_overhead", t.wall / untraced.wall - 1.0, "ratio"},
      {"bench.self_coverage", ratio(covered, t.wall), "ratio"},
  };
  if (c.invalid_plans > 0)
    out.errors.push_back(std::to_string(c.invalid_plans) + " invalid scheduler plans");
  if (w.execute) {
    if (std::string e = check_digest(env, stack, w.options); !e.empty())
      out.errors.push_back(e);
  }
  if (!out.errors.empty()) out.failed = out.attempted;
  return out;
}

int run_workload(const Options& opt) {
  const std::vector<Workload> all = workloads();
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const Workload& w) { return w.name == opt.workload; });
  if (it == all.end()) {
    std::cerr << "unknown workload '" << opt.workload << "' (";
    for (std::size_t i = 0; i < all.size(); ++i) std::cerr << (i ? ", " : "") << all[i].name;
    std::cerr << ")\n";
    return 2;
  }
  const Workload& w = *it;
  const runtime::StackSpec stack = runtime::preset_spec(runtime::Framework::HybriMoE);

  LayerCounters counters;
  if (opt.trace) register_timed_components(counters);
  const Outcome out = opt.trace ? run_traced(w, stack, counters, opt) : run_plain(w, stack, opt);
  const bool correct = out.errors.empty();

  const std::string meta = run_meta_json(opt.meta);
  std::cout << "run_meta " << meta << "\n";
  for (const std::string& e : out.errors) std::cout << w.name << " CHECK FAILED: " << e << "\n";
  for (const Metric& m : out.metrics)
    std::cout << w.name << " " << m.name << " " << util::json::format_number(m.value) << " "
              << m.unit << "\n";

  const std::string metrics = metrics_json(out.metrics);
  if (!opt.out.empty()) {
    std::ofstream file(opt.out);
    util::JsonWriter::Inline r(file);
    r.field("workload").string(w.name);
    r.field("trace").boolean(opt.trace);
    r.field("seconds").exact(opt.seconds);
    r.field("run_meta").raw(meta);
    r.field("correct").boolean(correct);
    r.field("attempted").number(out.attempted);
    r.field("failed").number(out.failed);
    r.field("metrics").raw(metrics);
    r.close();
    file << "\n";
  }

  std::ostringstream result;
  util::JsonWriter::Inline r(result);
  r.field("correct").boolean(correct);
  r.field("attempted").number(out.attempted);
  r.field("failed").number(out.failed);
  r.field("metrics").raw(metrics);
  r.close();
  std::cout << result.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace hybrimoe::e2e

int main(int argc, char** argv) {
  using namespace hybrimoe::e2e;
  Options opt;
  std::vector<std::string> agree_dirs;
  auto need = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << argv[i] << " needs a value\n";
      std::exit(2);
    }
    return argv[++i];
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--workload") opt.workload = need(i);
      else if (arg == "--seed") opt.meta.seed = std::stoull(need(i));
      else if (arg == "--seconds") opt.seconds = std::stod(need(i));
      else if (arg == "--trace") opt.trace = std::stoi(need(i)) != 0;
      else if (arg == "--out") opt.out = need(i);
      else if (arg == "--git") opt.meta.git = need(i);
      else if (arg == "--dirty") opt.meta.dirty = std::stoi(need(i)) != 0;
      else if (arg == "--agree") {
        agree_dirs.push_back(need(i));
        agree_dirs.push_back(need(i));
      } else {
        std::cerr << "unknown argument '" << arg << "'\n";
        return 2;
      }
    }
    // Both modes run from the repository root, where BENCHMARK.json lives.
    if (!agree_dirs.empty()) return agree_runs(agree_dirs[0], agree_dirs[1], std::cout);
    if (opt.workload.empty() || !(opt.seconds > 0.0)) {
      std::cerr << "usage: hybrimoe_bench --workload NAME --seconds S [--seed N] "
                   "[--trace 0|1] [--out FILE] [--git SHA] [--dirty 0|1]\n"
                   "       hybrimoe_bench --agree DIR_A DIR_B\n";
      return 2;
    }
    return run_workload(opt);
  } catch (const std::exception& e) {
    std::cerr << "hybrimoe_bench: " << e.what() << "\n";
    return 1;
  }
}
