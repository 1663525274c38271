/// \file ablation_design.cpp
/// Design-choice ablations beyond the paper's Table III — the knobs the
/// paper fixes that this bench sweeps:
///   1. MRS parameter sensitivity: EMA coefficient alpha and the TopP factor
///      (the paper fixes p = 2*top_k; we sweep it);
///   2. prefetch lookahead depth 0..4 (the paper uses 3);
///   3. replacement-policy zoo on the end-to-end engine, including the
///      Belady oracle replayed offline as an upper bound;
///   4. beneficial-transfer check on/off (naive PCIe priority vs simulated);
///   5. greedy scheduling optimality gap vs the exact exhaustive optimum.

#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "cache/classic_policies.hpp"
#include "cache/mrs_policy.hpp"
#include "core/warmup.hpp"
#include "runtime/stack_registry.hpp"
#include "sched/optimal.hpp"

namespace {

using namespace hybrimoe;
using namespace hybrimoe::bench;

/// The hybrid scheduler without the §IV-B simulated commit check: every
/// transfer the priority rules pick is issued (naive PCIe priority).
const runtime::SchedulerRegistrar kHybridUnchecked{
    "hybrid-unchecked",
    [](const runtime::ComponentContext&) -> std::unique_ptr<sched::LayerScheduler> {
      sched::SimOptions options;
      options.transfer_only_if_beneficial = false;
      return std::make_unique<sched::SimScheduler>(sched::SimScheduler::hybrid(options));
    }};

}  // namespace

int main() {
  const auto model = moe::ModelConfig::deepseek();
  constexpr double kRatio = 0.25;
  constexpr std::size_t kSteps = 256;

  // ------------------------------------------------------------- (1) MRS
  print_header("MRS parameter sensitivity (DeepSeek @ 25%, replay hit rate %)",
               "design ablation 1 / paper Eq. 3 defaults");
  {
    workload::TraceGenParams params;
    params.seed = kBenchSeed;
    workload::TraceGenerator gen(model, params);
    const auto trace = gen.generate_decode(kSteps);
    const std::size_t capacity = cache::ExpertCache::capacity_for_ratio(model, kRatio);

    util::TextTable table("hit rate by alpha (rows) and top-p factor (cols)");
    table.set_headers({"alpha \\ p/k", "1", "2 (paper)", "3", "4"});
    for (const double alpha : {0.1, 0.2, 0.3, 0.5, 0.8}) {
      table.begin_row().add_cell(util::format_double(alpha, 1));
      for (const std::size_t factor : {1UL, 2UL, 3UL, 4UL}) {
        cache::MrsPolicy::Params p;
        p.alpha = alpha;
        p.top_p_factor = factor;
        cache::ExpertCache cache(capacity, std::make_unique<cache::MrsPolicy>(p));
        table.add_cell(util::format_double(
            core::replay_hit_rate(trace, model, cache, true) * 100.0, 1));
      }
    }
    table.print(std::cout);
  }

  // -------------------------------------------------- (2) prefetch depth
  print_header("Prefetch lookahead depth (DeepSeek @ 25%, decode TBT)",
               "design ablation 2 / paper uses depth 3");
  {
    util::TextTable table("decode TBT by lookahead depth");
    table.set_headers({"depth", "TBT", "hit rate", "prefetches", "speedup vs depth 0"});
    double base_tbt = 0.0;
    for (const std::size_t depth : {0UL, 1UL, 2UL, 3UL, 4UL}) {
      auto spec = make_spec(model, kRatio);
      spec.trace.lookahead = std::max<std::size_t>(depth, 1);
      runtime::ExperimentHarness harness(spec);
      runtime::StackSpec stack = runtime::ablation_specs().back();  // "All"
      if (depth == 0)
        stack.prefetch.policy = "none";
      else
        stack.prefetch.depth = depth;
      const auto metrics = harness.run_decode(stack, kDecodeSteps);
      const double tbt = metrics.tbt_mean();
      if (depth == 0) base_tbt = tbt;
      table.begin_row()
          .add_cell(std::to_string(depth))
          .add_cell(util::format_seconds(tbt))
          .add_cell(util::format_double(metrics.cache.hit_rate() * 100.0, 1) + "%")
          .add_cell(metrics.prefetches)
          .add_cell(util::format_speedup(base_tbt / tbt));
    }
    table.print(std::cout);
  }

  // ------------------------------------------------------ (3) policy zoo
  print_header("Replacement-policy zoo (DeepSeek @ 25%, replay hit rate %)",
               "design ablation 3");
  {
    workload::TraceGenParams params;
    params.seed = kBenchSeed ^ 0xF00D;
    workload::TraceGenerator gen(model, params);
    const auto trace = gen.generate_decode(kSteps);
    const std::size_t capacity = cache::ExpertCache::capacity_for_ratio(model, kRatio);

    // Flatten the reference string for the Belady oracle.
    std::vector<moe::ExpertId> refs;
    for (const auto& step : trace.steps)
      for (std::size_t l = 0; l < step.layers.size(); ++l)
        for (const auto e : step.layers[l].activated())
          refs.push_back({static_cast<std::uint16_t>(l), static_cast<std::uint16_t>(e)});

    util::TextTable table("policies at 25% capacity");
    table.set_headers({"policy", "hit rate (%)", "of Belady"});
    struct Row {
      std::string name;
      std::unique_ptr<cache::CachePolicy> policy;
      bool scores;
    };
    std::vector<Row> rows;
    rows.push_back({"Random", std::make_unique<cache::RandomPolicy>(5), false});
    rows.push_back({"FIFO", std::make_unique<cache::FifoPolicy>(), false});
    rows.push_back({"LRU", std::make_unique<cache::LruPolicy>(), false});
    rows.push_back({"LFU", std::make_unique<cache::LfuPolicy>(), false});
    rows.push_back({"MRS", std::make_unique<cache::MrsPolicy>(), true});
    rows.push_back({"Belady", std::make_unique<cache::BeladyPolicy>(refs), false});

    double belady = 0.0;
    std::vector<std::pair<std::string, double>> results;
    for (auto& row : rows) {
      cache::ExpertCache cache(capacity, std::move(row.policy));
      const double rate = core::replay_hit_rate(trace, model, cache, row.scores);
      if (row.name == "Belady") belady = rate;
      results.emplace_back(row.name, rate);
    }
    for (const auto& [name, rate] : results) {
      table.begin_row()
          .add_cell(name)
          .add_cell(util::format_double(rate * 100.0, 1))
          .add_cell(util::format_double(rate / belady * 100.0, 0) + "%");
    }
    table.print(std::cout);
  }

  // ------------------------------- (4) beneficial-transfer check on/off
  print_header("Beneficial-transfer simulation vs naive PCIe priority",
               "design ablation 4 / §IV-B simulation phase");
  {
    util::TextTable table("decode TBT with and without the simulated commit check");
    table.set_headers({"model", "naive transfers", "simulated check", "gain"});
    for (const auto& m : moe::paper_models()) {
      runtime::ExperimentHarness harness(make_spec(m, kRatio));

      auto run_with = [&](const char* scheduler) {
        runtime::StackSpec stack;  // hybrid + MRS, no prefetch or overhead
        stack.scheduler.policy = scheduler;
        stack.prefetch.policy = "none";
        stack.overhead_us = 0.0;
        return harness.run_decode(stack, kDecodeSteps).tbt_mean();
      };
      const double naive = run_with("hybrid-unchecked");
      const double checked = run_with("hybrid");
      table.begin_row()
          .add_cell(m.name)
          .add_cell(util::format_seconds(naive))
          .add_cell(util::format_seconds(checked))
          .add_cell(util::format_speedup(naive / checked));
    }
    table.print(std::cout);
    std::cout << "\nThe simulated commit check should never lose; it wins most where\n"
                 "CPU compute is cheaper than a transfer (small experts).\n";
  }

  // -------------------------------------- (5) greedy vs exact optimum
  print_header("Greedy scheduling optimality gap (decode layers, real cost model)",
               "design ablation 5 / §III Opportunity 2");
  {
    util::TextTable table("greedy makespan / exact optimum, per model");
    table.set_headers({"model", "layers sampled", "mean gap", "p95 gap", "max gap"});
    for (const auto& m : moe::paper_models()) {
      // Mixtral activates <= 8+ experts per decode layer; the 64-expert
      // models activate ~top_k (6-8): all within exhaustive reach.
      const hw::CostModel costs(hw::Topology::a6000_xeon10(), m);
      workload::TraceGenParams params;
      params.seed = kBenchSeed ^ 0x0991;
      workload::TraceGenerator gen(m, params);
      const auto trace = gen.generate_decode(16);
      util::Rng cached_rng(3);

      std::vector<double> gaps;
      for (const auto& step : trace.steps) {
        for (std::size_t l = 0; l < step.layers.size(); ++l) {
          std::vector<sched::ExpertDemand> demands;
          for (const auto e : step.layers[l].activated())
            demands.push_back({static_cast<std::uint16_t>(e),
                               step.layers[l].loads[e], cached_rng.bernoulli(0.4)});
          if (demands.empty() || demands.size() > 12) continue;
          const double greedy =
              sched::simulate_layer(static_cast<std::uint16_t>(l),
                                    sched::Stage::Decode, demands, costs)
                  .makespan;
          const double optimal =
              sched::optimal_layer_schedule(demands, costs).makespan;
          gaps.push_back(greedy / optimal);
        }
      }
      table.begin_row()
          .add_cell(m.name)
          .add_cell(gaps.size())
          .add_cell(util::format_speedup(util::mean(gaps)))
          .add_cell(util::format_speedup(util::percentile(gaps, 95.0)))
          .add_cell(util::format_speedup(
              *std::max_element(gaps.begin(), gaps.end())));
    }
    table.print(std::cout);
    std::cout << "\nThe priority-rule greedy stays within a few percent of the exact\n"
                 "optimum — the quantitative backing for the paper's decision to\n"
                 "schedule with rules instead of search.\n";
  }

  return 0;
}
