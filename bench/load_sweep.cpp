/// \file load_sweep.cpp
/// Million-user load harness: the discrete-event serving core pushed through
/// a Poisson / burst / diurnal arrival-shape sweep across load levels, with
/// KV-cache accounting enabled (reject admission under a deliberately tight
/// budget) so the shed behaviour under memory pressure is measured, not just
/// the latency tails. Per (shape, rate) cell it reports the LoadSummary row:
/// p50/p99 TTFT and TBT, reject rate, output throughput and goodput under a
/// TBT SLO — the pass criteria every later scheduling/caching PR is judged
/// against.
///
/// Scale: the Poisson sweep serves >= 100k requests at default settings
/// (40k per load level x 3 levels); burst and diurnal ride at a fifth of
/// that per cell. The tiny model keeps a full run in minutes — the sweep
/// exercises queueing dynamics, not kernel arithmetic. Trace memory stays
/// bounded: a serve builds each request's traces at admission and frees
/// them when it finishes. Set
/// HYBRIMOE_LOAD_SWEEP_REQUESTS to override the per-cell Poisson count
/// (CI's smoke job runs a short sweep this way).
///
/// Determinism is a checked invariant, not an aspiration: the first cell of
/// every shape is served twice and the two LoadSummary rows must agree bit
/// for bit (exit 1 otherwise), and the JSON artifact is seed-stable — the
/// same binary writes the same bytes run to run (CI byte-diffs it).
///
/// `--stacks` swaps the evaluated stack (single stack per run — the sweep is
/// about load response, not stack comparison); optional positional argument:
/// path to emit the JSON artifact (BENCH_load_sweep.json, committed under
/// bench/results/ to keep the perf trajectory diffable).

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "serve_sim/kv.hpp"
#include "workload/request_stream.hpp"

namespace {

using hybrimoe::runtime::ServeMetrics;

/// TBT SLO for goodput, matching hybrimoe_run's default --slo.
constexpr double kTbtSlo = 0.100;  // seconds

/// Offered-load levels (requests/second): under-saturated, near-saturated,
/// and overloaded for the tiny model at max_batch 8.
constexpr std::array<double, 3> kRates{250.0, 750.0, 1500.0};

/// Default Poisson requests per load level (3 levels -> 120k total >= the
/// 100k acceptance floor). Burst/diurnal cells run at a fifth of this.
constexpr std::size_t kPoissonRequestsPerCell = 40000;

/// KV budget in tokens of full context: six max-size requests — below the
/// max_batch of 8, so saturated cells actually shed under reject admission
/// while under-saturated cells (active set of 1-2) never feel it.
constexpr std::size_t kKvBudgetTokens = 6 * (48 + 12);

/// Per-cell Poisson request count, overridable for CI smoke runs.
std::size_t poisson_requests_per_cell() {
  if (const char* env = std::getenv("HYBRIMOE_LOAD_SWEEP_REQUESTS")) {
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (n > 0 && *end == '\0') return static_cast<std::size_t>(n);
    std::cerr << "ignoring invalid HYBRIMOE_LOAD_SWEEP_REQUESTS='" << env << "'\n";
  }
  return kPoissonRequestsPerCell;
}

bool rows_identical(const ServeMetrics::LoadSummary& a,
                    const ServeMetrics::LoadSummary& b) {
  return a.shape == b.shape && a.arrival_rate == b.arrival_rate &&
         a.tbt_slo == b.tbt_slo && a.requests == b.requests &&
         a.finished == b.finished && a.rejected == b.rejected &&
         a.evictions == b.evictions && a.reject_rate == b.reject_rate &&
         a.ttft_p50 == b.ttft_p50 && a.ttft_p99 == b.ttft_p99 &&
         a.tbt_p50 == b.tbt_p50 && a.tbt_p99 == b.tbt_p99 &&
         a.throughput == b.throughput && a.goodput == b.goodput &&
         a.makespan == b.makespan;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hybrimoe;
  using namespace hybrimoe::bench;

  const StackArgs args =
      parse_stack_args(argc, argv, std::array{runtime::Framework::HybriMoE});
  if (args.stacks.size() != 1) {
    std::cerr << "bench_load_sweep sweeps load for exactly one stack; got "
              << args.stacks.size() << "\n";
    return 2;
  }
  const runtime::StackSpec& stack = args.stacks.front();

  print_header("Load sweep (arrival shapes x load levels, KV accounting on)",
               "serving extension; ROADMAP 'millions of users' harness");

  const auto model = moe::ModelConfig::tiny();
  runtime::ExperimentHarness harness(make_spec(model, 0.25));

  const double bytes_per_token = serve_sim::model_kv_bytes_per_token(model);

  runtime::ServeOptions options;
  options.max_batch = 8;
  options.max_prefill_chunk = 16;
  options.kv.budget_mb =
      static_cast<double>(kKvBudgetTokens) * bytes_per_token / 1.0e6;
  options.kv.bytes_per_token = bytes_per_token;
  options.kv.mode = serve_sim::AdmissionMode::Reject;

  const std::size_t poisson_n = poisson_requests_per_cell();
  const std::size_t other_n = std::max<std::size_t>(poisson_n / 5, 100);

  constexpr std::array<workload::ArrivalProcess, 3> kShapes{
      workload::ArrivalProcess::Poisson, workload::ArrivalProcess::Burst,
      workload::ArrivalProcess::Diurnal};

  std::vector<ServeMetrics::LoadSummary> rows;
  bool determinism_held = true;

  for (const auto shape : kShapes) {
    const std::size_t n =
        shape == workload::ArrivalProcess::Poisson ? poisson_n : other_n;

    util::TextTable table(std::string(to_string(shape)) + " arrivals — " +
                          model.name + ", " + std::to_string(n) +
                          " requests/cell, KV " +
                          util::format_double(options.kv.budget_mb, 3) +
                          " MB reject admission, goodput SLO p95 TBT <= " +
                          util::format_seconds(kTbtSlo));
    table.set_headers({"req/s", "finished", "rejected", "reject rate",
                       "p99 TTFT", "p99 TBT", "tok/s", "goodput tok/s"});

    for (std::size_t li = 0; li < kRates.size(); ++li) {
      const double rate = kRates[li];
      workload::RequestStreamParams stream;
      stream.num_requests = n;
      stream.arrival_rate = rate;
      stream.process = shape;
      stream.prompt_tokens_min = 16;
      stream.prompt_tokens_max = 48;
      stream.decode_tokens_min = 6;
      stream.decode_tokens_max = 12;
      stream.diurnal_period = 10.0;  // several day/night swings per cell
      stream.seed = kBenchSeed;

      const auto specs = workload::generate_request_stream(stream);
      const auto metrics = harness.serve_stream(stack, specs, options);
      auto row = metrics.summarize(to_string(shape), rate, kTbtSlo);

      // Determinism gate: the first cell of every shape runs twice; the
      // event core must reproduce the summary bit for bit.
      if (li == 0) {
        const auto again = harness.serve_stream(stack, specs, options)
                               .summarize(to_string(shape), rate, kTbtSlo);
        if (!rows_identical(row, again)) {
          determinism_held = false;
          std::cout << "FAIL: " << to_string(shape) << " @ " << rate
                    << " req/s is not deterministic across reruns\n";
        }
      }

      table.begin_row()
          .add_cell(util::format_double(rate, 0))
          .add_cell(std::to_string(row.finished))
          .add_cell(std::to_string(row.rejected))
          .add_cell(pct(row.reject_rate))
          .add_cell(util::format_seconds(row.ttft_p99))
          .add_cell(util::format_seconds(row.tbt_p99))
          .add_cell(util::format_double(row.throughput, 1))
          .add_cell(util::format_double(row.goodput, 1));
      rows.push_back(std::move(row));
    }
    table.print(std::cout);
  }

  if (!args.positional.empty()) {
    std::ofstream json(args.positional.front());
    util::JsonWriter w(json);
    w.field("bench").string("load_sweep");
    w.field("model").string(model.name);
    w.field("stack").string(stack.display_name());
    w.field("tbt_slo").number(kTbtSlo);
    w.field("kv_budget_mb").number(options.kv.budget_mb);
    w.field("admission").string(to_string(options.kv.mode));
    w.field("points").begin_array();
    for (const auto& r : rows) {
      auto item = w.row();
      item.field("shape").string(r.shape);
      item.field("rate").number(r.arrival_rate);
      item.field("requests").number(r.requests);
      item.field("finished").number(r.finished);
      item.field("rejected").number(r.rejected);
      item.field("evictions").number(r.evictions);
      item.field("reject_rate").number(r.reject_rate);
      item.field("ttft_p50_s").number(r.ttft_p50);
      item.field("ttft_p99_s").number(r.ttft_p99);
      item.field("tbt_p50_s").number(r.tbt_p50);
      item.field("tbt_p99_s").number(r.tbt_p99);
      item.field("throughput_tok_s").number(r.throughput);
      item.field("goodput_tok_s").number(r.goodput);
      item.field("makespan_s").number(r.makespan);
      item.close();
    }
    w.end_array();
    w.finish();
    std::cout << "\nWrote " << args.positional.front() << "\n";
  }

  std::cout << "\nDeterminism check "
            << (determinism_held ? "held" : "FAILED — event core is not seeded")
            << "; rerunning with the same seed must reproduce every row.\n";
  return determinism_held ? 0 : 1;
}
