#include "core/warmup.hpp"

#include <algorithm>
#include <utility>

namespace hybrimoe::core {

std::vector<moe::ExpertId> hottest_experts(
    const std::vector<std::vector<double>>& frequencies, std::size_t count) {
  std::vector<std::pair<double, moe::ExpertId>> ranked;
  for (std::size_t l = 0; l < frequencies.size(); ++l)
    for (std::size_t e = 0; e < frequencies[l].size(); ++e)
      ranked.emplace_back(frequencies[l][e],
                          moe::ExpertId{static_cast<std::uint16_t>(l),
                                        static_cast<std::uint16_t>(e)});
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<moe::ExpertId> out;
  out.reserve(std::min(count, ranked.size()));
  for (std::size_t i = 0; i < ranked.size() && out.size() < count; ++i)
    out.push_back(ranked[i].second);
  return out;
}

double replay_hit_rate(const workload::DecodeTrace& trace, const moe::ModelConfig& model,
                       cache::ExpertCache& cache, bool feed_scores) {
  for (const auto& step : trace.steps) {
    for (std::size_t l = 0; l < step.layers.size(); ++l) {
      const auto layer = static_cast<std::uint16_t>(l);
      if (feed_scores) cache.update_scores(layer, step.layers[l].scores, model.top_k);
      for (const auto e : step.layers[l].activated()) {
        const moe::ExpertId id{layer, static_cast<std::uint16_t>(e)};
        if (!cache.lookup(id)) (void)cache.insert(id);  // miss: load and admit
      }
    }
  }
  return cache.stats().hit_rate();
}

}  // namespace hybrimoe::core
