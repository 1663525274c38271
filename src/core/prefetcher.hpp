#pragma once

/// \file prefetcher.hpp
/// Inter-layer expert prefetching (§IV-C). While layer l computes, the PCIe
/// link is (partially) idle; a prefetcher spends that idle time uploading
/// experts predicted to be activated by upcoming layers. Predictions reuse
/// the gate networks of those layers evaluated on the current hidden state
/// (Fig. 6) and are provided by the trace.
///
/// Two strategies:
///  * ImpactDrivenPrefetcher — the paper's contribution: before committing a
///    prefetch, *simulate* the target layer's schedule with and without the
///    candidate resident and rank candidates by discounted makespan
///    reduction (on multi-device topologies the counterfactual assumes
///    primary-device residency and link-0 transfer cost — a documented
///    approximation; the engine routes the actual upload to the least-busy
///    link);
///  * NextLayerTopPrefetcher — the AdapMoE-style baseline: upload the
///    highest-score predicted experts of the next layer, no simulation.

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "cache/expert_cache.hpp"
#include "hw/cost_model.hpp"
#include "sched/simulator.hpp"
#include "workload/trace.hpp"

namespace hybrimoe::core {

/// One planned speculative upload.
struct PrefetchDecision {
  moe::ExpertId expert;
  double impact = 0.0;  ///< expected discounted makespan reduction (seconds)
};

/// Strategy interface. Benchmark-pinned surface: bench/e2e overrides plan(),
/// so its signature (the `unordered_set` pointer included) stays.
class Prefetcher {
 public:
  virtual ~Prefetcher() = default;
  /// Registry key and display name of the strategy.
  [[nodiscard]] virtual std::string name() const = 0;
  /// Uploads to issue while `layer` of `trace` computes, for layers after
  /// it. `budget_seconds` is the link idle time available meanwhile; each
  /// decision consumes one expert transfer from it. `cache` is the primary
  /// device's cache. `extra_resident` holds the experts resident outside it
  /// that must not be re-fetched: other devices' residents and the staged
  /// prefill buffers, only in layers after `layer`. It is null when there
  /// are none.
  [[nodiscard]] virtual std::vector<PrefetchDecision> plan(
      const workload::ForwardTrace& trace, std::size_t layer, sched::Stage stage,
      const cache::ExpertCache& cache, const hw::CostModel& costs,
      double budget_seconds,
      const std::unordered_set<moe::ExpertId>* extra_resident = nullptr) = 0;
};

/// The paper's impact-driven strategy (§IV-C).
class ImpactDrivenPrefetcher final : public Prefetcher {
 public:
  struct Params {
    std::size_t depth = 3;          ///< lookahead layers (paper: next three)
    double confidence_decay = 0.7;  ///< per-layer prediction-confidence discount
    std::size_t max_per_layer = 8;  ///< cap on uploads hidden under one layer
    void validate() const;
  };

  /// Default parameters and hybrid impact options.
  ImpactDrivenPrefetcher();
  /// `impact_options` are the simulation options of the scheduler the
  /// prefetches will eventually benefit (usually
  /// SimScheduler::hybrid().impact_options()).
  ImpactDrivenPrefetcher(Params params, sched::SimOptions impact_options);

  /// "impact-driven".
  [[nodiscard]] std::string name() const override { return "impact-driven"; }
  /// The lookahead, decay and per-layer cap in use.
  [[nodiscard]] const Params& params() const noexcept { return params_; }

  /// Greedy: each round simulates every target layer with and without each
  /// uncached candidate resident and commits the largest discounted gain.
  [[nodiscard]] std::vector<PrefetchDecision> plan(
      const workload::ForwardTrace& trace, std::size_t layer, sched::Stage stage,
      const cache::ExpertCache& cache, const hw::CostModel& costs,
      double budget_seconds,
      const std::unordered_set<moe::ExpertId>* extra_resident = nullptr) override;

 private:
  Params params_;
  sched::SimOptions impact_options_;
};

/// AdapMoE-style baseline: highest predicted scores of the next layer first.
class NextLayerTopPrefetcher final : public Prefetcher {
 public:
  /// At most `max_per_layer` uploads per layer.
  explicit NextLayerTopPrefetcher(std::size_t max_per_layer = 8)
      : max_per_layer_(max_per_layer) {}

  /// "next-layer-top".
  [[nodiscard]] std::string name() const override { return "next-layer-top"; }

  /// The next layer's predicted misses, highest score first, while budget
  /// remains.
  [[nodiscard]] std::vector<PrefetchDecision> plan(
      const workload::ForwardTrace& trace, std::size_t layer, sched::Stage stage,
      const cache::ExpertCache& cache, const hw::CostModel& costs,
      double budget_seconds,
      const std::unordered_set<moe::ExpertId>* extra_resident = nullptr) override;

 private:
  std::size_t max_per_layer_;
};

}  // namespace hybrimoe::core
