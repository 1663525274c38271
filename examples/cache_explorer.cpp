/// \file cache_explorer.cpp
/// Standalone cache-policy playground: replays one decode trace through the
/// expert cache under every replacement policy (including the Belady oracle
/// upper bound) across a sweep of capacities. This isolates §IV-D from
/// scheduling entirely — the same methodology as the paper's Fig. 9.

#include <functional>
#include <iostream>
#include <memory>

#include "cache/classic_policies.hpp"
#include "cache/expert_cache.hpp"
#include "cache/mrs_policy.hpp"
#include "core/warmup.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

namespace {

using namespace hybrimoe;

/// Flatten a decode trace into the per-reference access string, with the
/// score vectors interleaved so score-aware policies stay informed.
struct Replay {
  std::vector<moe::ExpertId> references;

  static Replay from(const workload::DecodeTrace& trace) {
    Replay r;
    for (const auto& step : trace.steps)
      for (std::size_t l = 0; l < step.layers.size(); ++l)
        for (const auto e : step.layers[l].activated())
          r.references.push_back(
              {static_cast<std::uint16_t>(l), static_cast<std::uint16_t>(e)});
    return r;
  }
};

}  // namespace

int main() {
  const moe::ModelConfig model = moe::ModelConfig::deepseek();
  workload::TraceGenParams params;
  params.seed = 11;
  workload::TraceGenerator generator(model, params);
  const auto trace = generator.generate_decode(256);
  const auto replay = Replay::from(trace);

  std::cout << "Cache policy explorer: " << model.name << ", 256 decode steps, "
            << replay.references.size() << " expert references\n\n";

  using PolicyFactory = std::function<std::unique_ptr<cache::CachePolicy>()>;
  const std::vector<std::pair<std::string, PolicyFactory>> policies = {
      {"Random", [] { return std::make_unique<cache::RandomPolicy>(3); }},
      {"FIFO", [] { return std::make_unique<cache::FifoPolicy>(); }},
      {"LRU", [] { return std::make_unique<cache::LruPolicy>(); }},
      {"LFU", [] { return std::make_unique<cache::LfuPolicy>(); }},
      {"MRS", [] { return std::make_unique<cache::MrsPolicy>(); }},
      {"Belady", [&] { return std::make_unique<cache::BeladyPolicy>(replay.references); }},
  };

  util::TextTable table("expert cache hit rate (%) by policy and capacity");
  std::vector<std::string> headers = {"capacity"};
  for (const auto& [name, _] : policies) headers.push_back(name);
  table.set_headers(std::move(headers));

  for (const double ratio : {0.15, 0.25, 0.40, 0.55, 0.70}) {
    const std::size_t capacity = cache::ExpertCache::capacity_for_ratio(model, ratio);
    table.begin_row().add_cell(util::format_double(ratio * 100.0, 0) + "% (" +
                               std::to_string(capacity) + ")");
    for (const auto& [name, make_policy] : policies) {
      cache::ExpertCache cache(capacity, make_policy());
      const double rate = core::replay_hit_rate(trace, model, cache, name == "MRS");
      table.add_cell(util::format_double(rate * 100.0, 1));
    }
  }
  table.print(std::cout);

  std::cout << "\nMRS (score-aware, Eq. 3) should sit between LRU and the Belady "
               "oracle at low capacity.\n";
  return 0;
}
