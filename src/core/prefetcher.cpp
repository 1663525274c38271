#include "core/prefetcher.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace hybrimoe::core {

namespace {

/// Demands of a predicted layer routing, with residency taken from the cache
/// plus the prefetches already committed this round.
std::vector<sched::ExpertDemand> predicted_demands(
    const moe::LayerRouting& routing, std::uint16_t layer,
    const cache::ExpertCache& cache,
    std::span<const moe::ExpertId> committed,
    const std::unordered_set<moe::ExpertId>* extra_resident) {
  std::vector<sched::ExpertDemand> demands;
  for (std::uint32_t e = 0; e < routing.loads.size(); ++e) {
    if (routing.loads[e] == 0) continue;
    const moe::ExpertId id{layer, static_cast<std::uint16_t>(e)};
    const bool resident = cache.probe(id) ||
                          std::ranges::find(committed, id) != committed.end() ||
                          (extra_resident != nullptr && extra_resident->contains(id));
    demands.push_back({static_cast<std::uint16_t>(e), routing.loads[e], resident});
  }
  return demands;
}

}  // namespace

void ImpactDrivenPrefetcher::Params::validate() const {
  HYBRIMOE_REQUIRE(depth >= 1, "prefetch depth must be >= 1");
  HYBRIMOE_REQUIRE(confidence_decay > 0.0 && confidence_decay <= 1.0,
                   "confidence_decay must be in (0,1]");
  HYBRIMOE_REQUIRE(max_per_layer >= 1, "max_per_layer must be >= 1");
}

ImpactDrivenPrefetcher::ImpactDrivenPrefetcher()
    : ImpactDrivenPrefetcher(Params{}, sched::SimOptions{}) {}

ImpactDrivenPrefetcher::ImpactDrivenPrefetcher(Params params,
                                               sched::SimOptions impact_options)
    : params_(params), impact_options_(impact_options) {
  params_.validate();
  impact_options_.validate();
}

std::vector<PrefetchDecision> ImpactDrivenPrefetcher::plan(
    const workload::ForwardTrace& trace, std::size_t layer, sched::Stage stage,
    const cache::ExpertCache& cache, const hw::CostModel& costs,
    double budget_seconds, const std::unordered_set<moe::ExpertId>* extra_resident) {
  std::vector<PrefetchDecision> decisions;
  if (cache.capacity() == 0) return decisions;
  const double xfer = costs.transfer_time(0);
  // At most max_per_layer entries: a linear scan beats hashing.
  std::vector<moe::ExpertId> committed;

  // `budget_seconds` is the window in which a transfer may *start* (the link
  // keeps running across layer boundaries), so we issue while any window
  // remains; each decision occupies the link for one transfer.
  while (budget_seconds > 0.0 && decisions.size() < params_.max_per_layer) {
    PrefetchDecision best;
    bool found = false;

    for (std::size_t d = 1; d <= params_.depth; ++d) {
      const std::size_t target = layer + d;
      if (target >= trace.num_layers()) break;
      const moe::LayerRouting* pred = trace.prediction(layer, target);
      if (pred == nullptr) continue;

      const auto tgt_layer = static_cast<std::uint16_t>(target);
      const auto demands =
          predicted_demands(*pred, tgt_layer, cache, committed, extra_resident);
      if (demands.empty()) continue;

      // The target layer's dense phase occupies its GPU head just like the
      // engine will schedule it.
      sched::SimOptions sim = impact_options_;
      sim.gpu_busy_until = costs.attention_time(pred->total_tokens) +
                           costs.shared_experts_time(pred->total_tokens);

      const double base =
          sched::simulate_layer(tgt_layer, stage, demands, costs, sim).makespan;
      const double discount = std::pow(params_.confidence_decay, static_cast<double>(d));

      for (const auto& dem : demands) {
        if (dem.cached) continue;
        const double with_expert = sched::makespan_with_extra_cached(
            tgt_layer, stage, demands, dem.expert, costs, sim);
        const double impact = (base - with_expert) * discount;
        if (impact > best.impact) {
          best.expert = {tgt_layer, dem.expert};
          best.impact = impact;
          found = true;
        }
      }
    }

    if (!found || best.impact <= 0.0) break;
    decisions.push_back(best);
    committed.push_back(best.expert);
    budget_seconds -= xfer;
  }
  return decisions;
}

std::vector<PrefetchDecision> NextLayerTopPrefetcher::plan(
    const workload::ForwardTrace& trace, std::size_t layer, sched::Stage /*stage*/,
    const cache::ExpertCache& cache, const hw::CostModel& costs,
    double budget_seconds, const std::unordered_set<moe::ExpertId>* extra_resident) {
  std::vector<PrefetchDecision> decisions;
  if (cache.capacity() == 0) return decisions;
  const std::size_t target = layer + 1;
  if (target >= trace.num_layers()) return decisions;
  const moe::LayerRouting* pred = trace.prediction(layer, target);
  if (pred == nullptr) return decisions;

  // Predicted-activated experts ranked by predicted score, misses only.
  std::vector<std::pair<float, std::uint16_t>> ranked;
  for (std::uint32_t e = 0; e < pred->loads.size(); ++e) {
    if (pred->loads[e] == 0) continue;
    const moe::ExpertId id{static_cast<std::uint16_t>(target),
                           static_cast<std::uint16_t>(e)};
    if (cache.probe(id)) continue;
    if (extra_resident != nullptr && extra_resident->contains(id)) continue;
    ranked.emplace_back(pred->scores[e], static_cast<std::uint16_t>(e));
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });

  const double xfer = costs.transfer_time(0);
  double budget = budget_seconds;
  for (const auto& [score, e] : ranked) {
    if (budget <= 0.0 || decisions.size() >= max_per_layer_) break;
    decisions.push_back(
        {moe::ExpertId{static_cast<std::uint16_t>(target), e}, static_cast<double>(score)});
    budget -= xfer;
  }
  return decisions;
}

}  // namespace hybrimoe::core
