/// \file fig9_cache_hit.cpp
/// Reproduces Fig. 9: expert-cache hit rate of MRS (Minus Recent Score)
/// versus LRU across cached-expert percentages 30..70% on all three models.
/// The paper reports MRS ahead by 6-8 points at low capacity (e.g. Mixtral
/// 36.2% vs 30.2% at 25%) with the gap narrowing as capacity grows
/// (Mixtral 83.3% vs 80.6% at 75%).
///
/// Methodology matches the paper's: a pure cache replay — every activated
/// expert is looked up; misses are loaded and admitted; the policy decides
/// evictions. Scheduling plays no role here.

#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "cache/classic_policies.hpp"
#include "cache/mrs_policy.hpp"
#include "core/warmup.hpp"

using namespace hybrimoe;

int main() {
  using namespace hybrimoe::bench;

  print_header("Cache hit rate, MRS vs LRU (percent)", "paper Fig. 9");

  constexpr std::size_t kReplaySteps = 384;
  const double capacities[] = {0.25, 0.30, 0.40, 0.50, 0.60, 0.70, 0.75};

  util::TextTable table("hit rate (%) by cached expert percentage");
  std::vector<std::string> headers{"model", "policy"};
  for (const double c : capacities) headers.push_back(pct(c));
  table.set_headers(std::move(headers));

  for (const auto& model : moe::paper_models()) {
    workload::TraceGenParams params;
    params.seed = kBenchSeed;
    workload::TraceGenerator generator(model, params);
    const auto trace = generator.generate_decode(kReplaySteps);

    for (const bool use_mrs : {false, true}) {
      table.begin_row().add_cell(model.name).add_cell(use_mrs ? "MRS" : "LRU");
      for (const double c : capacities) {
        const std::size_t capacity = cache::ExpertCache::capacity_for_ratio(model, c);
        std::unique_ptr<cache::CachePolicy> policy;
        if (use_mrs) {
          policy = std::make_unique<cache::MrsPolicy>();
        } else {
          policy = std::make_unique<cache::LruPolicy>();
        }
        cache::ExpertCache cache(capacity, std::move(policy));
        const double rate = core::replay_hit_rate(trace, model, cache, use_mrs);
        table.add_cell(util::format_double(rate * 100.0, 1));
      }
    }
  }
  table.print(std::cout);

  std::cout << "\nExpected shape: MRS above LRU everywhere, the gap widest at low\n"
               "capacity and narrowing as the cache grows (paper: +6-8 points at\n"
               "25%, ~+2.7 at 75%).\n";
  return 0;
}
