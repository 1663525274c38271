/// \file priority_isolation.cpp
/// Tier-isolation bench: does VIP tail latency survive a best-effort flood?
/// Three serving runs on the same engine configuration:
///
///   1. baseline — VIP + standard foreground with a best-effort background,
///      priority admission + SLO-aware preemption on;
///   2. loaded   — identical foreground, best-effort load DOUBLED, same
///      serving policy;
///   3. fifo     — the loaded stream again but with plain FIFO admission and
///      no preemption (the counterfactual: what the tiers buy).
///
/// The machine-checked isolation invariant (also a CTest case, see
/// tests/scenario/invariants.hpp): loaded VIP p99 TBT <= 1.25x the baseline
/// VIP p99 TBT. Exit 1 on violation. Optional positional argument: path for
/// a machine-readable JSON summary (BENCH_priority_isolation.json in CI).

#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "workload/request_stream.hpp"

namespace {

using namespace hybrimoe;

/// Loaded-over-baseline VIP p99 TBT bound (the ISSUE's isolation criterion).
constexpr double kIsolationBound = 1.25;
/// Best-effort background size; the loaded run doubles it.
constexpr std::size_t kBackground = 6;

/// Deterministic tiered stream: a fixed VIP + standard foreground and a
/// best-effort background of `background` long-prompt requests. Hand-built
/// (not generate_request_stream) so the foreground is *identical* across
/// load levels — only the background grows.
std::vector<workload::RequestSpec> make_stream(std::size_t background) {
  std::vector<workload::RequestSpec> specs;
  std::uint64_t id = 0;
  auto add = [&](double arrival, std::size_t prompt, std::size_t decode,
                 workload::Priority priority) {
    workload::RequestSpec r;
    r.id = id++;
    r.arrival_time = arrival;
    r.prompt_tokens = prompt;
    r.decode_tokens = decode;
    r.priority = priority;
    specs.push_back(r);
  };
  // Foreground: short interactive VIP requests arriving while the flood is
  // still in flight (Tiny-model steps are sub-millisecond, so the whole run
  // plays out over tens of milliseconds), plus a standard mid-weight tier.
  for (std::size_t i = 0; i < 4; ++i)
    add(0.005 + 0.010 * static_cast<double>(i), 24, 16,
        workload::Priority::Vip);
  for (std::size_t i = 0; i < 4; ++i)
    add(0.008 + 0.010 * static_cast<double>(i), 32, 10,
        workload::Priority::Standard);
  // Background: a front-loaded burst of long best-effort prompts — they are
  // all queued before the first VIP arrives, so admission order (not just
  // arrival order) decides who waits.
  for (std::size_t i = 0; i < background; ++i)
    add(0.0002 * static_cast<double>(i), 96 + 16 * (i % 3), 8,
        workload::Priority::BestEffort);
  return specs;
}

runtime::ServeOptions tiered_options() {
  runtime::ServeOptions options;
  options.max_batch = 4;
  options.max_prefill_chunk = 16;  // preemption needs chunk boundaries
  options.priority_admission = true;
  options.preemption = true;
  options.tiers[workload::priority_index(workload::Priority::Vip)].tbt_slo =
      0.050;
  return options;
}

struct Row {
  std::string label;
  runtime::ServeMetrics::TailSummary vip_tbt;
  runtime::ServeMetrics::TailSummary vip_ttft;
  double throughput = 0.0;
  std::size_t finished = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace hybrimoe::bench;

  const StackArgs args = parse_stack_args(
      argc, argv, std::array{runtime::Framework::HybriMoE});

  print_header("Priority-tier isolation (VIP tails under a best-effort flood)",
               "serving extension; tier-isolation invariant of the scenario "
               "suite");

  const auto model = moe::ModelConfig::tiny();
  runtime::ExperimentHarness harness(make_spec(model, 0.25));
  const runtime::StackSpec stack = args.stacks.front();
  const runtime::ServeOptions tiered = tiered_options();

  auto serve = [&](std::size_t background, const runtime::ServeOptions& opt) {
    return harness.serve_stream(stack, make_stream(background), opt);
  };

  const auto baseline = serve(kBackground, tiered);
  const auto loaded = serve(2 * kBackground, tiered);
  runtime::ServeOptions fifo = tiered;
  fifo.priority_admission = false;
  fifo.preemption = false;
  const auto counterfactual = serve(2 * kBackground, fifo);

  const auto row_of = [](const std::string& label,
                         const runtime::ServeMetrics& m) {
    Row row;
    row.label = label;
    row.vip_tbt = m.tbt_tails(workload::Priority::Vip);
    row.vip_ttft = m.ttft_tails(workload::Priority::Vip);
    row.throughput = m.throughput();
    row.finished = m.finished_count();
    return row;
  };
  const std::vector<Row> rows{
      row_of("tiered, 1x best-effort", baseline),
      row_of("tiered, 2x best-effort", loaded),
      row_of("fifo,   2x best-effort", counterfactual),
  };

  util::TextTable table(model.name + " — " + stack.display_name() +
                        ", foreground 4 VIP + 4 standard, background " +
                        std::to_string(kBackground) + " -> " +
                        std::to_string(2 * kBackground) + " best-effort");
  table.set_headers({"run", "VIP p50/p99 TBT", "VIP p99 TTFT", "tok/s",
                     "finished"});
  for (const Row& row : rows) {
    table.begin_row()
        .add_cell(row.label)
        .add_cell(util::format_seconds(row.vip_tbt.p50) + " / " +
                  util::format_seconds(row.vip_tbt.p99))
        .add_cell(util::format_seconds(row.vip_ttft.p99))
        .add_cell(util::format_double(row.throughput, 1))
        .add_cell(std::to_string(row.finished));
  }
  table.print(std::cout);

  const double ratio = rows[1].vip_tbt.p99 / rows[0].vip_tbt.p99;
  const bool violated = ratio > kIsolationBound;
  std::cout << "\nVIP p99 TBT ratio (2x / 1x best-effort): "
            << util::format_double(ratio, 3) << " (bound "
            << util::format_double(kIsolationBound, 2) << ") — "
            << (violated ? "FAIL" : "ok") << "\n";

  if (!args.positional.empty()) {
    std::ofstream json(args.positional.front());
    util::JsonWriter w(json);
    w.field("bench").string("priority_isolation");
    w.field("model").string(model.name);
    w.field("stack").string(stack.display_name());
    w.field("isolation_bound").number(kIsolationBound);
    w.field("vip_p99_tbt_ratio").number(ratio);
    w.field("isolation_held").boolean(!violated);
    w.field("runs").begin_array();
    for (const Row& row : rows) {
      auto item = w.row();
      item.field("run").string(row.label);
      item.field("vip_tbt_p50_s").number(row.vip_tbt.p50);
      item.field("vip_tbt_p99_s").number(row.vip_tbt.p99);
      item.field("vip_ttft_p99_s").number(row.vip_ttft.p99);
      item.field("throughput_tok_s").number(row.throughput);
      item.field("finished").number(row.finished);
      item.close();
    }
    w.end_array();
    w.finish();
    std::cout << "Wrote " << args.positional.front() << "\n";
  }

  std::cout << "\nPriority admission + chunk-boundary preemption keep the VIP\n"
               "tail flat while the best-effort background doubles; the FIFO\n"
               "row shows the tail without tiers.\n";
  return violated ? 1 : 0;
}
