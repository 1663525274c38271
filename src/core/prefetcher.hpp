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

/// Strategy interface. `budget_seconds` is the PCIe idle time available
/// while the current layer computes; each decision consumes one expert
/// transfer from it. `extra_resident` lists experts already uploaded outside
/// the cache (prefill-stage transient buffers) that must not be re-fetched.
class Prefetcher {
 public:
  virtual ~Prefetcher() = default;
  [[nodiscard]] virtual std::string name() const = 0;
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

  ImpactDrivenPrefetcher();  // default parameters, hybrid impact options
  /// `impact_options` are the simulation options of the scheduler the
  /// prefetches will eventually benefit (usually
  /// SimScheduler::hybrid().impact_options()).
  ImpactDrivenPrefetcher(Params params, sched::SimOptions impact_options);

  [[nodiscard]] std::string name() const override { return "impact-driven"; }
  [[nodiscard]] const Params& params() const noexcept { return params_; }

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
  explicit NextLayerTopPrefetcher(std::size_t max_per_layer = 8)
      : max_per_layer_(max_per_layer) {}

  [[nodiscard]] std::string name() const override { return "next-layer-top"; }

  [[nodiscard]] std::vector<PrefetchDecision> plan(
      const workload::ForwardTrace& trace, std::size_t layer, sched::Stage stage,
      const cache::ExpertCache& cache, const hw::CostModel& costs,
      double budget_seconds,
      const std::unordered_set<moe::ExpertId>* extra_resident = nullptr) override;

 private:
  std::size_t max_per_layer_;
};

}  // namespace hybrimoe::core
