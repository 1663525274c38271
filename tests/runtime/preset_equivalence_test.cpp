/// \file preset_equivalence_test.cpp
/// The declarative configuration layer's regression anchor: a verbatim
/// frozen copy of the pre-registry closed factory (the switch-based
/// make_engine / make_ablation_engine this repository shipped before the
/// StackSpec redesign) builds every framework preset and every Table III
/// ablation variant, and the spec-based path must reproduce its
/// run_prefill / run_decode metrics *bit for bit* — including, in Threaded
/// execution mode, the wall-clock-independent layer-output digests. If an
/// assembly detail drifts (a default parameter, a flag, an overhead
/// constant, seeding pinnedness), these tests point at the exact metric.

#include <gtest/gtest.h>

#include <memory>

#include "cache/classic_policies.hpp"
#include "cache/mrs_policy.hpp"
#include "core/warmup.hpp"
#include "exec/executor.hpp"
#include "runtime/frameworks.hpp"
#include "workload/generator.hpp"

namespace hybrimoe::runtime {
namespace {

// ---------------------------------------------------------------------------
// Frozen legacy factory (pre-StackSpec), kept verbatim apart from the
// `legacy_` prefixes. Do not "fix" or modernise this code — its only job is
// to pin down what the closed factory built.
// ---------------------------------------------------------------------------

constexpr double kPythonOverhead = 150e-6;   // AdapMoE-style PyTorch loop
constexpr double kKTransOverhead = 120e-6;   // Python frontend + C++ kernels
constexpr double kLlamaCppOverhead = 60e-6;  // native C++ graph walk
constexpr double kHybriMoeOverhead = 40e-6;  // in-kernel task allocation

std::unique_ptr<cache::ExpertCache> legacy_make_cache(
    const moe::ModelConfig& model, double ratio,
    std::unique_ptr<cache::CachePolicy> policy) {
  const std::size_t capacity = cache::ExpertCache::capacity_for_ratio(model, ratio);
  return std::make_unique<cache::ExpertCache>(capacity, std::move(policy));
}

void legacy_seed_from_warmup(OffloadEngine& engine, const EngineBuildInfo& info,
                             bool pinned) {
  if (info.warmup_frequencies.empty()) return;
  const auto hottest =
      core::hottest_experts(info.warmup_frequencies, engine.device_cache(0).capacity());
  engine.seed_cache(hottest, pinned);
}

std::unique_ptr<OffloadEngine> legacy_make_engine(Framework framework,
                                                  const hw::CostModel& costs,
                                                  const EngineBuildInfo& info) {
  const moe::ModelConfig& model = costs.model();
  EngineComponents c;
  bool pin_seed = false;

  switch (framework) {
    case Framework::HybriMoE: {
      c.name = to_string(framework);
      sched::SimOptions hybrid_options;  // all features on
      c.scheduler = std::make_unique<sched::HybridScheduler>(hybrid_options);
      c.caches.push_back(legacy_make_cache(model, info.cache_ratio,
                                           std::make_unique<cache::MrsPolicy>()));
      c.prefetcher = std::make_unique<core::ImpactDrivenPrefetcher>(
          core::ImpactDrivenPrefetcher::Params{}, hybrid_options);
      c.dynamic_cache_inserts = true;
      c.update_policy_scores = true;
      c.cache_maintenance = true;
      c.per_layer_overhead = kHybriMoeOverhead;
      break;
    }
    case Framework::KTransformers: {
      c.name = to_string(framework);
      c.scheduler = std::make_unique<sched::FixedMapScheduler>();
      c.caches.push_back(legacy_make_cache(model, info.cache_ratio,
                                           std::make_unique<cache::LfuPolicy>()));
      c.prefetcher = nullptr;
      c.dynamic_cache_inserts = false;  // static placement
      c.update_policy_scores = false;
      c.cache_maintenance = false;
      c.per_layer_overhead = kKTransOverhead;
      pin_seed = true;
      break;
    }
    case Framework::AdapMoE: {
      c.name = to_string(framework);
      c.scheduler = std::make_unique<sched::GpuCentricScheduler>();
      c.caches.push_back(legacy_make_cache(model, info.cache_ratio,
                                           std::make_unique<cache::LruPolicy>()));
      c.prefetcher = std::make_unique<core::NextLayerTopPrefetcher>();
      c.dynamic_cache_inserts = true;
      c.update_policy_scores = false;
      c.cache_maintenance = false;
      c.per_layer_overhead = kPythonOverhead;
      break;
    }
    case Framework::LlamaCpp: {
      c.name = to_string(framework);
      c.scheduler =
          std::make_unique<sched::StaticLayerScheduler>(model.num_layers, info.cache_ratio);
      // llama.cpp has no expert cache; residency is the static layer split.
      c.caches.push_back(
          std::make_unique<cache::ExpertCache>(0, std::make_unique<cache::LruPolicy>()));
      c.prefetcher = nullptr;
      c.dynamic_cache_inserts = false;
      c.update_policy_scores = false;
      c.cache_maintenance = false;
      c.per_layer_overhead = kLlamaCppOverhead;
      break;
    }
    case Framework::OnDemand: {
      c.name = to_string(framework);
      c.scheduler = std::make_unique<sched::GpuCentricScheduler>();
      c.caches.push_back(legacy_make_cache(model, info.cache_ratio,
                                           std::make_unique<cache::LruPolicy>()));
      c.prefetcher = nullptr;
      c.dynamic_cache_inserts = true;
      c.update_policy_scores = false;
      c.cache_maintenance = false;
      c.per_layer_overhead = kPythonOverhead;
      break;
    }
  }

  c.execution_mode = info.execution_mode;
  c.executor = info.executor;
  auto engine = std::make_unique<OffloadEngine>(std::move(c), costs);
  if (framework != Framework::LlamaCpp) legacy_seed_from_warmup(*engine, info, pin_seed);
  return engine;
}

std::unique_ptr<OffloadEngine> legacy_make_ablation_engine(
    const core::HybriMoeConfig& config, const hw::CostModel& costs,
    const EngineBuildInfo& info) {
  const moe::ModelConfig& model = costs.model();
  EngineComponents c;
  c.name = config.label();
  // Fixed baseline-level dispatch overhead across all ablation variants: the
  // ablation isolates the three techniques, not the C++ reimplementation.
  c.per_layer_overhead = kKTransOverhead;

  sched::SimOptions hybrid_options;
  if (config.hybrid_scheduling) {
    c.scheduler = std::make_unique<sched::HybridScheduler>(hybrid_options);
  } else {
    c.scheduler = std::make_unique<sched::FixedMapScheduler>();
  }

  bool pin_seed;
  if (config.score_aware_caching) {
    c.caches.push_back(legacy_make_cache(model, info.cache_ratio,
                                         std::make_unique<cache::MrsPolicy>(config.mrs)));
    c.dynamic_cache_inserts = true;
    c.update_policy_scores = true;
    c.cache_maintenance = true;
    pin_seed = false;
  } else {
    c.caches.push_back(legacy_make_cache(model, info.cache_ratio,
                                         std::make_unique<cache::LfuPolicy>()));
    c.dynamic_cache_inserts = config.hybrid_scheduling || config.impact_prefetching;
    c.update_policy_scores = false;
    c.cache_maintenance = false;
    pin_seed = !c.dynamic_cache_inserts;
  }

  if (config.impact_prefetching) {
    const sched::SimOptions impact = config.hybrid_scheduling
                                         ? hybrid_options
                                         : c.scheduler->impact_options();
    c.prefetcher =
        std::make_unique<core::ImpactDrivenPrefetcher>(config.prefetch, impact);
  }

  c.execution_mode = info.execution_mode;
  c.executor = info.executor;
  auto engine = std::make_unique<OffloadEngine>(std::move(c), costs);
  legacy_seed_from_warmup(*engine, info, pin_seed);
  return engine;
}

// ---------------------------------------------------------------------------
// Bitwise comparison of everything an engine run reports.
// ---------------------------------------------------------------------------

void expect_identical(const StageMetrics& legacy, const StageMetrics& spec,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(legacy.stage, spec.stage);
  EXPECT_EQ(legacy.tokens, spec.tokens);
  EXPECT_EQ(legacy.total_latency, spec.total_latency);  // bitwise, no tolerance
  EXPECT_EQ(legacy.per_forward, spec.per_forward);
  EXPECT_EQ(legacy.attention_time, spec.attention_time);
  EXPECT_EQ(legacy.shared_time, spec.shared_time);
  EXPECT_EQ(legacy.moe_time, spec.moe_time);
  EXPECT_EQ(legacy.cpu_busy, spec.cpu_busy);
  EXPECT_EQ(legacy.gpu_busy, spec.gpu_busy);
  EXPECT_EQ(legacy.pcie_busy, spec.pcie_busy);
  EXPECT_EQ(legacy.cache.hits, spec.cache.hits);
  EXPECT_EQ(legacy.cache.misses, spec.cache.misses);
  EXPECT_EQ(legacy.transfers, spec.transfers);
  EXPECT_EQ(legacy.prefetches, spec.prefetches);
  EXPECT_EQ(legacy.maintenance, spec.maintenance);
  EXPECT_EQ(legacy.exec_digest, spec.exec_digest);
}

#if defined(__SANITIZE_THREAD__)
#define HYBRIMOE_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HYBRIMOE_TEST_TSAN 1
#endif
#endif
#if defined(HYBRIMOE_TEST_TSAN)
constexpr double kExecScale = 3e-3;
#else
constexpr double kExecScale = 3e-4;
#endif

class PresetEquivalenceTest : public ::testing::Test {
 protected:
  PresetEquivalenceTest()
      : model_(moe::ModelConfig::tiny(4, 8, 2)),
        costs_(hw::MachineProfile::unit_test_machine(), model_) {
    info_.cache_ratio = 0.25;
    info_.seed = 17;
    info_.warmup_frequencies.assign(model_.num_layers,
                                    std::vector<double>(model_.num_routed_experts));
    for (std::size_t l = 0; l < info_.warmup_frequencies.size(); ++l)
      for (std::size_t e = 0; e < info_.warmup_frequencies[l].size(); ++e)
        info_.warmup_frequencies[l][e] = static_cast<double>((e * 7 + l) % 11);

    workload::TraceGenParams params;
    params.seed = 29;
    workload::TraceGenerator gen(model_, params);
    prefill_ = std::make_unique<workload::PrefillTrace>(gen.generate_prefill(24));
    decode_ = std::make_unique<workload::DecodeTrace>(gen.generate_decode(12));
  }

  moe::ModelConfig model_;
  hw::CostModel costs_;
  EngineBuildInfo info_;
  std::unique_ptr<workload::PrefillTrace> prefill_;
  std::unique_ptr<workload::DecodeTrace> decode_;
};

TEST_F(PresetEquivalenceTest, AllPresetsReproduceLegacyFactoryBitForBit) {
  for (const Framework framework : kAllFrameworks) {
    auto legacy = legacy_make_engine(framework, costs_, info_);
    auto spec = make_engine(preset_spec(framework), costs_, info_);
    EXPECT_EQ(legacy->name(), spec->name());
    EXPECT_EQ(legacy->device_cache(0).capacity(), spec->device_cache(0).capacity());
    expect_identical(legacy->run_prefill(*prefill_), spec->run_prefill(*prefill_),
                     std::string(to_string(framework)) + " prefill");
    expect_identical(legacy->run_decode(*decode_), spec->run_decode(*decode_),
                     std::string(to_string(framework)) + " decode");
  }
}

TEST_F(PresetEquivalenceTest, PresetsReproduceLegacyWithoutWarmup) {
  EngineBuildInfo no_warmup = info_;
  no_warmup.warmup_frequencies.clear();
  for (const Framework framework : kAllFrameworks) {
    auto legacy = legacy_make_engine(framework, costs_, no_warmup);
    auto spec = make_engine(preset_spec(framework), costs_, no_warmup);
    expect_identical(legacy->run_decode(*decode_), spec->run_decode(*decode_),
                     std::string(to_string(framework)) + " decode, no warmup");
  }
}

TEST_F(PresetEquivalenceTest, AblationVariantsReproduceLegacyBitForBit) {
  core::HybriMoeConfig tweaked = core::HybriMoeConfig::full();
  tweaked.mrs.alpha = 0.42;
  tweaked.prefetch.depth = 2;
  tweaked.prefetch.max_per_layer = 4;
  for (const auto& config :
       {core::HybriMoeConfig::baseline(), core::HybriMoeConfig::scheduling_only(),
        core::HybriMoeConfig::prefetching_only(), core::HybriMoeConfig::caching_only(),
        core::HybriMoeConfig::full(), tweaked}) {
    auto legacy = legacy_make_ablation_engine(config, costs_, info_);
    auto spec = make_engine(ablation_spec(config), costs_, info_);
    EXPECT_EQ(legacy->name(), spec->name());
    expect_identical(legacy->run_prefill(*prefill_), spec->run_prefill(*prefill_),
                     config.label() + " prefill");
    expect_identical(legacy->run_decode(*decode_), spec->run_decode(*decode_),
                     config.label() + " decode");
  }
}

TEST_F(PresetEquivalenceTest, SingleDeviceTopologyReproducesPresetsBitForBit) {
  // The acceptance bar of the multi-device generalization: a one-accelerator
  // hw::Topology must be *indistinguishable* from the historical
  // MachineProfile pair — same plans, same metrics, bit for bit — for every
  // preset, through the whole engine loop (caches, prefetcher, maintenance).
  const hw::CostModel topo_costs(
      hw::Topology::from_machine(hw::MachineProfile::unit_test_machine()), model_);
  for (const Framework framework : kAllFrameworks) {
    auto pair_engine = make_engine(preset_spec(framework), costs_, info_);
    auto topo_engine = make_engine(preset_spec(framework), topo_costs, info_);
    EXPECT_EQ(topo_engine->num_devices(), 1u);
    expect_identical(pair_engine->run_prefill(*prefill_),
                     topo_engine->run_prefill(*prefill_),
                     std::string(to_string(framework)) + " prefill (topology)");
    expect_identical(pair_engine->run_decode(*decode_),
                     topo_engine->run_decode(*decode_),
                     std::string(to_string(framework)) + " decode (topology)");
  }
}

TEST_F(PresetEquivalenceTest, SingleDeviceTopologyReproducesThreadedDigests) {
  exec::ExecOptions options;
  options.workers = 2;
  options.time_scale = kExecScale;
  info_.execution_mode = exec::ExecutionMode::Threaded;
  info_.executor = std::make_shared<exec::HybridExecutor>(options);

  const hw::CostModel topo_costs(
      hw::Topology::from_machine(hw::MachineProfile::unit_test_machine()), model_);
  for (const Framework framework : {Framework::HybriMoE, Framework::AdapMoE}) {
    SCOPED_TRACE(to_string(framework));
    auto pair_engine = make_engine(preset_spec(framework), costs_, info_);
    const auto pair_metrics = pair_engine->run_decode(*decode_);
    auto topo_engine = make_engine(preset_spec(framework), topo_costs, info_);
    const auto topo_metrics = topo_engine->run_decode(*decode_);
    EXPECT_NE(topo_metrics.exec_digest, 0U);
    EXPECT_EQ(pair_metrics.exec_digest, topo_metrics.exec_digest);
    EXPECT_EQ(pair_metrics.total_latency, topo_metrics.total_latency);
    EXPECT_EQ(pair_metrics.per_forward, topo_metrics.per_forward);
  }
}

TEST_F(PresetEquivalenceTest, MultiDeviceEngineDigestsMatchAcrossExecutionModes) {
  // Dual-accelerator engine, simulated-with-executor vs threaded: the device
  // assignment moves computation across lanes but must never change the
  // result (the digest) or any modeled metric.
  const hw::CostModel dual_costs(
      hw::Topology::replicated(hw::MachineProfile::unit_test_machine(), 2), model_);
  StackSpec spec = preset_spec(Framework::HybriMoE);

  exec::ExecOptions options;
  options.workers = 2;
  options.time_scale = kExecScale;

  EngineBuildInfo simulated = info_;
  simulated.execution_mode = exec::ExecutionMode::Simulated;
  simulated.executor = std::make_shared<exec::HybridExecutor>(options);
  auto sim_engine = make_engine(spec, dual_costs, simulated);
  EXPECT_EQ(sim_engine->num_devices(), 2u);
  const auto sim_metrics = sim_engine->run_decode(*decode_);

  EngineBuildInfo threaded = info_;
  threaded.execution_mode = exec::ExecutionMode::Threaded;
  threaded.executor = std::make_shared<exec::HybridExecutor>(options);
  auto thr_engine = make_engine(spec, dual_costs, threaded);
  const auto thr_metrics = thr_engine->run_decode(*decode_);

  EXPECT_NE(sim_metrics.exec_digest, 0U);
  EXPECT_EQ(sim_metrics.exec_digest, thr_metrics.exec_digest);
  EXPECT_EQ(sim_metrics.total_latency, thr_metrics.total_latency);
  EXPECT_EQ(sim_metrics.per_forward, thr_metrics.per_forward);
  EXPECT_GT(thr_metrics.measured_latency, 0.0);
}

TEST_F(PresetEquivalenceTest, ThreadedExecutionDigestsMatchLegacy) {
  exec::ExecOptions options;
  options.workers = 2;
  options.time_scale = kExecScale;
  // One shared executor: a shared deterministic weight store makes digests
  // comparable across engines; engines run strictly sequentially.
  info_.execution_mode = exec::ExecutionMode::Threaded;
  info_.executor = std::make_shared<exec::HybridExecutor>(options);

  for (const Framework framework : kAllFrameworks) {
    SCOPED_TRACE(to_string(framework));
    auto legacy = legacy_make_engine(framework, costs_, info_);
    const auto legacy_metrics = legacy->run_decode(*decode_);
    auto spec = make_engine(preset_spec(framework), costs_, info_);
    const auto spec_metrics = spec->run_decode(*decode_);
    // Wall clock (measured_latency) legitimately varies run to run; the
    // digest and every modeled metric must not.
    EXPECT_NE(spec_metrics.exec_digest, 0U);
    EXPECT_EQ(legacy_metrics.exec_digest, spec_metrics.exec_digest);
    EXPECT_EQ(legacy_metrics.total_latency, spec_metrics.total_latency);
    EXPECT_EQ(legacy_metrics.per_forward, spec_metrics.per_forward);
    EXPECT_GT(spec_metrics.measured_latency, 0.0);
  }
}

}  // namespace
}  // namespace hybrimoe::runtime
