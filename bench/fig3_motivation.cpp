/// \file fig3_motivation.cpp
/// Reproduces the paper's Fig. 3 motivation panels:
///  (a) cumulative activation-frequency CDF: neuron-level sparsity (OPT) is
///      heavily concentrated; MoE expert activations are far flatter;
///  (b) expert reuse probability decreases with the expert's score rank —
///      the signal MRS exploits;
///  (c) expert workload distribution within one prefill forward is uneven;
///  (d) latency of the three existing frameworks on Qwen2-prefill-128,
///      Mixtral-prefill-128 and Mixtral-decode-10 — no single winner;
///  (e) CPU vs GPU time for 1..7 experts at fixed load (CPU warmup visible
///      on the first task, then faster);
///  (f) CPU time grows linearly with workload size while GPU time stays
///      nearly flat.

#include <algorithm>
#include <iostream>
#include <numeric>

#include "bench_common.hpp"
#include "util/stats.hpp"
#include "workload/sparsity.hpp"

int main() {
  using namespace hybrimoe;
  using namespace hybrimoe::bench;

  // ---------------------------------------------------------------- (a)
  print_header("(a) Activation-frequency CDF: neurons vs experts", "Fig. 3a");
  {
    const auto neuron_freq = workload::zipf_frequencies(4096);

    auto expert_freq_flat = [&](const moe::ModelConfig& model) {
      workload::TraceGenParams params;
      params.seed = kBenchSeed;
      workload::TraceGenerator gen(model, params);
      const auto trace = gen.generate_decode(256);
      const auto freq = workload::activation_frequencies(trace, model);
      std::vector<double> flat;
      for (const auto& layer : freq)
        flat.insert(flat.end(), layer.begin(), layer.end());
      return flat;
    };
    const auto mixtral = expert_freq_flat(moe::ModelConfig::mixtral());
    const auto deepseek = expert_freq_flat(moe::ModelConfig::deepseek());

    util::TextTable table("share of activations captured by the top X% of units");
    table.set_headers({"top %", "OPT neurons", "Mixtral experts", "DeepSeek experts"});
    for (const double frac : {0.05, 0.10, 0.20, 0.40, 0.60, 0.80}) {
      table.begin_row()
          .add_cell(pct(frac))
          .add_cell(util::format_double(workload::top_share(neuron_freq, frac) * 100, 1))
          .add_cell(util::format_double(workload::top_share(mixtral, frac) * 100, 1))
          .add_cell(util::format_double(workload::top_share(deepseek, frac) * 100, 1));
    }
    table.print(std::cout);
    std::cout << "gini: neurons " << util::format_double(util::gini(neuron_freq), 2)
              << ", Mixtral " << util::format_double(util::gini(mixtral), 2)
              << ", DeepSeek " << util::format_double(util::gini(deepseek), 2)
              << "  (neurons far more concentrated)\n";
  }

  // ---------------------------------------------------------------- (b)
  print_header("(b) Expert reuse probability by score rank", "Fig. 3b");
  {
    const auto model = moe::ModelConfig::deepseek();
    workload::TraceGenParams params;
    params.seed = kBenchSeed;
    workload::TraceGenerator gen(model, params);
    const auto trace = gen.generate_decode(384);

    // reuse[rank] = P(expert with score rank `rank` at step t is activated
    // at step t+1), averaged over steps and layers.
    std::vector<double> reused(model.num_routed_experts, 0.0);
    std::vector<double> total(model.num_routed_experts, 0.0);
    for (std::size_t s = 0; s + 1 < trace.steps.size(); ++s) {
      for (std::size_t l = 0; l < model.num_layers; ++l) {
        const auto& now = trace.steps[s].layers[l];
        const auto& next = trace.steps[s + 1].layers[l];
        std::vector<std::uint32_t> order(model.num_routed_experts);
        std::iota(order.begin(), order.end(), 0U);
        std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
          return now.scores[a] > now.scores[b];
        });
        for (std::size_t rank = 0; rank < order.size(); ++rank) {
          total[rank] += 1.0;
          if (next.loads[order[rank]] > 0) reused[rank] += 1.0;
        }
      }
    }
    util::TextTable table("reuse probability at step t+1 by score rank at step t");
    table.set_headers({"score rank", "reuse probability"});
    for (const std::size_t rank : {0UL, 1UL, 3UL, 5UL, 7UL, 11UL, 15UL, 23UL, 31UL, 47UL, 63UL}) {
      table.begin_row()
          .add_cell("#" + std::to_string(rank + 1))
          .add_cell(reused[rank] / total[rank], 3);
    }
    table.print(std::cout);
    std::cout << "random baseline = top_k/N = "
              << util::format_double(
                     static_cast<double>(model.top_k) /
                         static_cast<double>(model.num_routed_experts), 3)
              << "; monotone decay in rank justifies score-aware caching.\n";
  }

  // ---------------------------------------------------------------- (c)
  print_header("(c) Expert workload distribution in one prefill forward", "Fig. 3c");
  {
    const auto model = moe::ModelConfig::deepseek();
    workload::TraceGenParams params;
    params.seed = kBenchSeed;
    workload::TraceGenerator gen(model, params);
    const auto prefill = gen.generate_prefill(128);
    const auto& routing = prefill.forward.layers[model.num_layers / 2];

    std::vector<std::uint32_t> loads = routing.loads;
    std::sort(loads.begin(), loads.end(), std::greater<>());
    util::TextTable table("per-expert token loads (DeepSeek, 128-token prefill, middle layer)");
    table.set_headers({"percentile", "load (tokens)"});
    const std::size_t n = loads.size();
    for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
      const auto idx = std::min(n - 1, static_cast<std::size_t>(q * static_cast<double>(n - 1)));
      table.begin_row()
          .add_cell("p" + util::format_double((1.0 - q) * 100, 0))
          .add_cell(std::to_string(loads[idx]));
    }
    table.print(std::cout);
    std::vector<double> loadsd(loads.begin(), loads.end());
    std::cout << "max/mean ratio = "
              << util::format_double(loadsd.front() / util::mean(loadsd), 2)
              << " — heavily unbalanced, so fixed mappings leave resources idle.\n";
  }

  // ---------------------------------------------------------------- (d)
  print_header("(d) No single existing strategy wins everywhere", "Fig. 3d");
  {
    util::TextTable table("per-scenario latency (s) of existing frameworks, 50% cache");
    table.set_headers({"scenario", "llama.cpp", "AdapMoE", "KTransformers", "best"});
    struct Scenario {
      std::string name;
      moe::ModelConfig model;
      bool prefill;
    };
    const Scenario scenarios[] = {
        {"Qwen2 prefill-128", moe::ModelConfig::qwen2(), true},
        {"Mixtral prefill-128", moe::ModelConfig::mixtral(), true},
        {"Mixtral decode-10", moe::ModelConfig::mixtral(), false},
    };
    for (const auto& sc : scenarios) {
      runtime::ExperimentHarness harness(make_spec(sc.model, 0.50));
      std::vector<std::pair<std::string, double>> results;
      for (const auto fw : {runtime::Framework::LlamaCpp, runtime::Framework::AdapMoE,
                            runtime::Framework::KTransformers}) {
        const runtime::StackSpec stack = runtime::preset_spec(fw);
        const double latency = sc.prefill ? harness.run_prefill(stack, 128).ttft()
                                          : harness.run_decode(stack, 10).total_latency;
        results.emplace_back(runtime::to_string(fw), latency);
      }
      const auto best = std::min_element(results.begin(), results.end(),
                                         [](const auto& a, const auto& b) {
                                           return a.second < b.second;
                                         });
      table.begin_row().add_cell(sc.name);
      for (const auto& [name, latency] : results) table.add_cell(latency, 3);
      table.add_cell(best->first);
    }
    table.print(std::cout);
  }

  // ---------------------------------------------------------------- (e)
  print_header("(e) CPU vs GPU time for varying numbers of experts", "Fig. 3e");
  {
    const auto model = moe::ModelConfig::deepseek();
    const hw::CostModel costs(hw::Topology::a6000_xeon10(), model);
    util::TextTable table("time to compute N experts at fixed load (decode, 1 token)");
    table.set_headers({"experts", "CPU (first cold)", "GPU"});
    for (std::size_t n = 1; n <= 7; ++n) {
      double cpu = costs.cpu_expert_time(1, /*warm=*/false);
      for (std::size_t i = 1; i < n; ++i) cpu += costs.cpu_expert_time(1, /*warm=*/true);
      const double gpu = static_cast<double>(n) * costs.gpu_expert_time(1, 0);
      table.begin_row()
          .add_cell(std::to_string(n))
          .add_cell(util::format_seconds(cpu))
          .add_cell(util::format_seconds(gpu));
    }
    table.print(std::cout);
    std::cout << "CPU pays a one-off warmup, then overlaps well; both scale linearly\n"
                 "in expert count at fixed load.\n";
  }

  // ---------------------------------------------------------------- (f)
  print_header("(f) CPU vs GPU time across workload sizes", "Fig. 3f");
  {
    const auto model = moe::ModelConfig::deepseek();
    const hw::CostModel costs(hw::Topology::a6000_xeon10(), model);
    util::TextTable table("single-expert time vs token load");
    table.set_headers({"tokens", "CPU", "GPU", "CPU/GPU"});
    for (const std::size_t tokens : {1UL, 8UL, 32UL, 128UL, 256UL, 512UL, 1024UL}) {
      const double cpu = costs.cpu_expert_time(tokens);
      const double gpu = costs.gpu_expert_time(tokens, 0);
      table.begin_row()
          .add_cell(std::to_string(tokens))
          .add_cell(util::format_seconds(cpu))
          .add_cell(util::format_seconds(gpu))
          .add_cell(cpu / gpu, 1);
    }
    table.print(std::cout);
    std::cout << "GPU stays near-flat (launch + weight streaming dominate); CPU grows\n"
                 "linearly once compute-bound — the asymmetry hybrid scheduling exploits.\n";
  }

  return 0;
}
