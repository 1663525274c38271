#include "runtime/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "cache/classic_policies.hpp"
#include "cache/mrs_policy.hpp"
#include "workload/generator.hpp"

namespace hybrimoe::runtime {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : model_(moe::ModelConfig::tiny(4, 8, 2)),
        costs_(hw::Topology::unit_test(), model_) {}

  EngineComponents hybrid_components(std::size_t capacity) {
    EngineComponents c;
    c.name = "test-hybrid";
    c.scheduler = std::make_unique<sched::SimScheduler>(sched::SimScheduler::hybrid());
    c.caches.push_back(std::make_unique<cache::ExpertCache>(
        capacity, std::make_unique<cache::MrsPolicy>()));
    c.prefetcher = std::make_unique<core::ImpactDrivenPrefetcher>();
    c.dynamic_cache_inserts = true;
    c.update_policy_scores = true;
    c.cache_maintenance = true;
    return c;
  }

  workload::DecodeTrace decode_trace(std::size_t steps, std::uint64_t seed = 71) {
    workload::TraceGenParams params;
    params.seed = seed;
    workload::TraceGenerator gen(model_, params);
    return gen.generate_decode(steps);
  }

  workload::PrefillTrace prefill_trace(std::size_t tokens, std::uint64_t seed = 72) {
    workload::TraceGenParams params;
    params.seed = seed;
    workload::TraceGenerator gen(model_, params);
    return gen.generate_prefill(tokens);
  }

  moe::ModelConfig model_;
  hw::CostModel costs_;
};

TEST_F(EngineTest, RequiresComponents) {
  EngineComponents missing_sched;
  missing_sched.name = "x";
  missing_sched.caches.push_back(
      std::make_unique<cache::ExpertCache>(1, std::make_unique<cache::LruPolicy>()));
  EXPECT_THROW(OffloadEngine(std::move(missing_sched), costs_), std::invalid_argument);

  EngineComponents missing_cache;
  missing_cache.name = "x";
  missing_cache.scheduler = std::make_unique<sched::SimScheduler>(sched::SimScheduler::hybrid());
  EXPECT_THROW(OffloadEngine(std::move(missing_cache), costs_), std::invalid_argument);
}

TEST_F(EngineTest, DecodeMetricsConsistency) {
  OffloadEngine engine(hybrid_components(8), costs_);
  const auto trace = decode_trace(6);
  const auto metrics = engine.run_decode(trace);

  EXPECT_EQ(metrics.stage, sched::Stage::Decode);
  EXPECT_EQ(metrics.tokens, 6U);
  ASSERT_EQ(metrics.per_forward.size(), 6U);
  double sum = 0.0;
  for (const double t : metrics.per_forward) {
    EXPECT_GT(t, 0.0);
    sum += t;
  }
  EXPECT_NEAR(sum, metrics.total_latency, 1e-9);
  EXPECT_NEAR(metrics.tbt_mean(), metrics.total_latency / 6.0, 1e-12);
  // Every activated expert produced exactly one lookup.
  std::size_t lookups = 0;
  for (const auto& step : trace.steps)
    for (const auto& layer : step.layers) lookups += layer.activated_count();
  EXPECT_EQ(metrics.cache.hits + metrics.cache.misses, lookups);
  // Busy time cannot exceed wall time per resource.
  EXPECT_LE(metrics.cpu_busy, metrics.total_latency + 1e-9);
  EXPECT_LE(metrics.gpu_busy, metrics.total_latency + 1e-9);
}

TEST_F(EngineTest, PrefillMetricsConsistency) {
  OffloadEngine engine(hybrid_components(8), costs_);
  const auto trace = prefill_trace(16);
  const auto metrics = engine.run_prefill(trace);
  EXPECT_EQ(metrics.stage, sched::Stage::Prefill);
  EXPECT_EQ(metrics.tokens, 16U);
  EXPECT_EQ(metrics.per_forward.size(), 1U);
  EXPECT_DOUBLE_EQ(metrics.ttft(), metrics.total_latency);
  EXPECT_GT(metrics.moe_time, 0.0);
}

TEST_F(EngineTest, SeedCacheRespectsCapacityAndPinning) {
  OffloadEngine engine(hybrid_components(3), costs_);
  const std::vector<moe::ExpertId> seeds = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  engine.seed_cache(seeds, /*pinned=*/true);
  EXPECT_EQ(engine.device_cache(0).size(), 3U);
  EXPECT_TRUE(engine.device_cache(0).is_pinned({0, 0}));
  EXPECT_FALSE(engine.device_cache(0).contains({1, 1}));
}

TEST_F(EngineTest, StaticCacheStaysStatic) {
  // kTransformers-style configuration: no dynamic inserts.
  EngineComponents c;
  c.name = "static";
  c.scheduler = std::make_unique<sched::SimScheduler>(sched::SimScheduler::fixed_map());
  c.caches.push_back(
      std::make_unique<cache::ExpertCache>(4, std::make_unique<cache::LfuPolicy>()));
  c.dynamic_cache_inserts = false;
  c.update_policy_scores = false;
  OffloadEngine engine(std::move(c), costs_);
  const std::vector<moe::ExpertId> seeds = {{0, 0}, {1, 1}, {2, 2}, {3, 3}};
  engine.seed_cache(seeds, true);
  const auto before = engine.device_cache(0).residents();
  (void)engine.run_decode(decode_trace(8));
  EXPECT_EQ(engine.device_cache(0).residents(), before);
}

TEST_F(EngineTest, DynamicDecodeInsertsGrowCache) {
  OffloadEngine engine(hybrid_components(8), costs_);
  EXPECT_EQ(engine.device_cache(0).size(), 0U);
  const auto metrics = engine.run_decode(decode_trace(8));
  EXPECT_GT(engine.device_cache(0).size(), 0U);
  EXPECT_GT(metrics.transfers + metrics.maintenance + metrics.prefetches, 0U);
}

TEST_F(EngineTest, PrefillDoesNotMutateCacheContents) {
  OffloadEngine engine(hybrid_components(6), costs_);
  const std::vector<moe::ExpertId> seeds = {{0, 0}, {1, 1}, {2, 2}};
  engine.seed_cache(seeds, false);
  const auto before = engine.device_cache(0).residents();
  (void)engine.run_prefill(prefill_trace(12));
  EXPECT_EQ(engine.device_cache(0).residents(), before);  // transient buffers only
}

TEST_F(EngineTest, ZeroCapacityCacheStillRuns) {
  // llama.cpp-style: 0-capacity cache, static layer scheduler.
  EngineComponents c;
  c.name = "llama";
  c.scheduler = std::make_unique<sched::StaticLayerScheduler>(model_.num_layers, 0.5);
  c.caches.push_back(
      std::make_unique<cache::ExpertCache>(0, std::make_unique<cache::LruPolicy>()));
  c.dynamic_cache_inserts = false;
  c.update_policy_scores = false;
  OffloadEngine engine(std::move(c), costs_);
  const auto metrics = engine.run_decode(decode_trace(4));
  EXPECT_GT(metrics.total_latency, 0.0);
  EXPECT_EQ(metrics.cache.hits, 0U);
}

TEST_F(EngineTest, PerLayerOverheadAddsUp) {
  auto with = hybrid_components(8);
  with.per_layer_overhead = 0.25;
  with.prefetcher = nullptr;  // keep runs otherwise identical
  with.cache_maintenance = false;
  auto without = hybrid_components(8);
  without.per_layer_overhead = 0.0;
  without.prefetcher = nullptr;
  without.cache_maintenance = false;
  OffloadEngine a(std::move(with), costs_);
  OffloadEngine b(std::move(without), costs_);
  const auto trace = decode_trace(2);
  const double da = a.run_decode(trace).total_latency;
  const double db = b.run_decode(trace).total_latency;
  // 2 steps x 4 layers x 0.25s.
  EXPECT_NEAR(da - db, 2.0, 1e-6);
}

TEST_F(EngineTest, TraceModelMismatchThrows) {
  OffloadEngine engine(hybrid_components(4), costs_);
  workload::TraceGenParams params;
  const auto other_model = moe::ModelConfig::tiny(7, 8, 2);  // different layers
  workload::TraceGenerator gen(other_model, params);
  const auto trace = gen.generate_decode(1);
  EXPECT_THROW((void)engine.run_decode(trace), std::invalid_argument);
}

TEST_F(EngineTest, DeterministicAcrossRuns) {
  const auto trace = decode_trace(5);
  OffloadEngine a(hybrid_components(8), costs_);
  OffloadEngine b(hybrid_components(8), costs_);
  const auto ma = a.run_decode(trace);
  const auto mb = b.run_decode(trace);
  EXPECT_DOUBLE_EQ(ma.total_latency, mb.total_latency);
  EXPECT_EQ(ma.cache.hits, mb.cache.hits);
  EXPECT_EQ(ma.prefetches, mb.prefetches);
}

// ---------------------------------------------------------------------------
// Residency on multi-accelerator stacks. Test-local wrappers around the real
// components observe what the engine asks and uploads.
// ---------------------------------------------------------------------------

/// Shared observations of the wrappers below.
struct Observed {
  std::vector<const cache::ExpertCache*> caches;  ///< every device's cache
  std::vector<double> link_cursor;  ///< the current layer's link cursors
  std::map<moe::ExpertId, std::size_t> staged_on;  ///< prefill: expert -> link
  std::size_t decisions = 0;
  std::size_t staged_reads_on_other_links = 0;  ///< staged on a link >= 1, then read
};

/// The real impact-driven prefetcher. No decision may name an expert resident
/// on any device cache, nor one this pass already staged. In prefill it also
/// logs the link each decision is staged on: the least-loaded one, lowest
/// index on ties.
class CheckingPrefetcher final : public core::Prefetcher {
 public:
  explicit CheckingPrefetcher(Observed& seen) : seen_(seen) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::vector<core::PrefetchDecision> plan(
      const workload::ForwardTrace& trace, std::size_t layer, sched::Stage stage,
      const cache::ExpertCache& cache, const hw::CostModel& costs, double budget,
      const std::unordered_set<moe::ExpertId>* extra_resident) override {
    auto decisions = inner_.plan(trace, layer, stage, cache, costs, budget, extra_resident);
    for (const auto& d : decisions) {
      ++seen_.decisions;
      EXPECT_GT(d.expert.layer, layer);
      for (const cache::ExpertCache* c : seen_.caches)
        EXPECT_FALSE(c->probe(d.expert)) << d.expert.to_string() << " is resident";
      if (stage != sched::Stage::Prefill) continue;
      EXPECT_FALSE(seen_.staged_on.contains(d.expert)) << d.expert.to_string();
      const auto link = static_cast<std::size_t>(
          std::min_element(seen_.link_cursor.begin(), seen_.link_cursor.end()) -
          seen_.link_cursor.begin());
      seen_.staged_on[d.expert] = link;
      seen_.link_cursor[link] += costs.transfer_time(link);
    }
    return decisions;
  }

 private:
  Observed& seen_;
  core::ImpactDrivenPrefetcher inner_;
};

/// The real hybrid scheduler. A demand for a staged expert must arrive cached
/// on the accelerator whose link staged it.
class CheckingScheduler final : public sched::LayerScheduler {
 public:
  explicit CheckingScheduler(Observed& seen) : seen_(seen) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] sched::LayerPlan schedule(std::uint16_t layer, sched::Stage stage,
                                          std::span<const sched::ExpertDemand> demands,
                                          const hw::CostModel& costs, double gpu_busy_until,
                                          double pcie_busy_until,
                                          std::span<const double> link_busy) override {
    for (const auto& d : demands) {
      const auto it = seen_.staged_on.find({layer, d.expert});
      if (it == seen_.staged_on.end()) continue;
      EXPECT_TRUE(d.cached) << it->first.to_string();
      EXPECT_EQ(d.cached_on, sched::accelerator_device(it->second)) << it->first.to_string();
      if (it->second >= 1) ++seen_.staged_reads_on_other_links;
      seen_.staged_on.erase(it);
    }
    sched::LayerPlan plan = inner_.schedule(layer, stage, demands, costs, gpu_busy_until,
                                            pcie_busy_until, link_busy);
    seen_.link_cursor = plan.link_ends;
    return plan;
  }

 private:
  Observed& seen_;
  sched::SimScheduler inner_ = sched::SimScheduler::hybrid();
};

/// A device's MRS policy. Nothing may be inserted into its cache while it is
/// resident on another device.
class CheckingPolicy final : public cache::CachePolicy {
 public:
  CheckingPolicy(std::unique_ptr<cache::CachePolicy> inner, std::size_t device,
                 const Observed& seen)
      : inner_(std::move(inner)), device_(device), seen_(seen) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void on_reference(moe::ExpertId id) override { inner_->on_reference(id); }
  void on_hit(moe::ExpertId id) override { inner_->on_hit(id); }
  void on_insert(moe::ExpertId id) override {
    for (std::size_t a = 0; a < seen_.caches.size(); ++a)
      EXPECT_TRUE(a == device_ || !seen_.caches[a]->probe(id))
          << id.to_string() << " inserted on device " << device_ << ", resident on " << a;
    inner_->on_insert(id);
  }
  void on_evict(moe::ExpertId id) override { inner_->on_evict(id); }
  void on_scores(std::uint16_t layer, std::span<const float> scores,
                 std::size_t top_k) override {
    inner_->on_scores(layer, scores, top_k);
  }
  [[nodiscard]] moe::ExpertId choose_victim(
      std::span<const moe::ExpertId> candidates) override {
    return inner_->choose_victim(candidates);
  }
  [[nodiscard]] double priority(moe::ExpertId id) const override {
    return inner_->priority(id);
  }

 private:
  std::unique_ptr<cache::CachePolicy> inner_;
  std::size_t device_;
  const Observed& seen_;
};

/// HybriMoE on 2 and 4 unit-cost accelerators, built from the wrappers.
class EngineResidencyTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  EngineResidencyTest()
      : model_(moe::ModelConfig::tiny(8, 16, 4)),
        costs_(hw::Topology::replicated(hw::Topology::unit_test(), GetParam()),
               model_) {}

  OffloadEngine engine(std::size_t per_device) {
    EngineComponents c;
    c.name = "residency-check";
    c.scheduler = std::make_unique<CheckingScheduler>(seen_);
    const auto mrs = std::make_unique<cache::MrsPolicy>();
    for (std::size_t a = 0; a < GetParam(); ++a) {
      c.caches.push_back(std::make_unique<cache::ExpertCache>(
          per_device, std::make_unique<CheckingPolicy>(mrs->share_table(), a, seen_)));
      seen_.caches.push_back(c.caches.back().get());
    }
    c.prefetcher = std::make_unique<CheckingPrefetcher>(seen_);
    c.cache_maintenance = true;
    return OffloadEngine(std::move(c), costs_);
  }

  workload::TraceGenerator generator() {
    workload::TraceGenParams params;
    params.seed = 91;
    return workload::TraceGenerator(model_, params);
  }

  moe::ModelConfig model_;
  hw::CostModel costs_;
  Observed seen_;
};

TEST_P(EngineResidencyTest, PrefillStagesOnTheLeastLoadedLinkAndReadsItThere) {
  OffloadEngine e = engine(6);
  const auto metrics = e.run_prefill(generator().generate_prefill(32));
  EXPECT_GT(seen_.decisions, 0U);
  EXPECT_EQ(metrics.prefetches, seen_.decisions);  // every staging lands
  // At least one expert was staged on a link other than the primary's and
  // read from that device.
  EXPECT_GT(seen_.staged_reads_on_other_links, 0U);
}

TEST_P(EngineResidencyTest, DecodeUploadsNothingResidentElsewhere) {
  OffloadEngine e = engine(6);
  const auto metrics = e.run_decode(generator().generate_decode(24));
  EXPECT_GT(seen_.decisions, 0U);
  EXPECT_GT(metrics.prefetches, 0U);
  EXPECT_GT(metrics.maintenance, 0U);  // the maintenance path ran
  for (std::size_t a = 1; a < GetParam(); ++a)
    EXPECT_GT(e.device_cache(a).size(), 0U) << "device " << a << " never filled";
}

INSTANTIATE_TEST_SUITE_P(Accelerators, EngineResidencyTest, ::testing::Values(2, 4));

}  // namespace
}  // namespace hybrimoe::runtime
