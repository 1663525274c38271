#include "runtime/stack_registry.hpp"

#include "cache/classic_policies.hpp"
#include "cache/mrs_policy.hpp"

namespace hybrimoe::runtime {

util::Registry<SchedulerFactory>& scheduler_registry() {
  static util::Registry<SchedulerFactory> registry("scheduler");
  return registry;
}

util::Registry<CachePolicyFactory>& cache_policy_registry() {
  static util::Registry<CachePolicyFactory> registry("cache policy");
  return registry;
}

util::Registry<PrefetcherFactory>& prefetcher_registry() {
  static util::Registry<PrefetcherFactory> registry("prefetcher");
  return registry;
}

util::Registry<TopologyFactory>& topology_registry() {
  static util::Registry<TopologyFactory> registry("topology preset");
  return registry;
}

// ---------------------------------------------------------------------------
// Built-in components. Keys match each component's name() where it has one,
// so registry listings and engine internals agree on vocabulary.
// ---------------------------------------------------------------------------

namespace {

// -- Schedulers (§IV-B and the baselines of Table I) -------------------------

const SchedulerRegistrar kHybridScheduler{
    "hybrid", [](const ComponentContext&) -> std::unique_ptr<sched::LayerScheduler> {
      return std::make_unique<sched::SimScheduler>(sched::SimScheduler::hybrid());
    }};

const SchedulerRegistrar kFixedMapScheduler{
    "fixed-map", [](const ComponentContext&) -> std::unique_ptr<sched::LayerScheduler> {
      return std::make_unique<sched::SimScheduler>(sched::SimScheduler::fixed_map());
    }};

const SchedulerRegistrar kGpuCentricScheduler{
    "gpu-centric", [](const ComponentContext&) -> std::unique_ptr<sched::LayerScheduler> {
      return std::make_unique<sched::SimScheduler>(sched::SimScheduler::gpu_centric());
    }};

const SchedulerRegistrar kStaticLayerScheduler{
    "static-layer",
    [](const ComponentContext& ctx) -> std::unique_ptr<sched::LayerScheduler> {
      const double fraction =
          ctx.spec.scheduler.gpu_fraction.value_or(ctx.info.cache_ratio);
      return std::make_unique<sched::StaticLayerScheduler>(ctx.costs.model().num_layers,
                                                           fraction);
    }};

// -- Cache replacement policies (§IV-D and the classics it is compared to) ---

const CachePolicyRegistrar kMrsPolicy{
    "mrs", [](const ComponentContext& ctx) -> std::unique_ptr<cache::CachePolicy> {
      cache::MrsPolicy::Params params;
      if (ctx.spec.cache.alpha.has_value()) params.alpha = *ctx.spec.cache.alpha;
      if (ctx.spec.cache.top_p_factor.has_value())
        params.top_p_factor = *ctx.spec.cache.top_p_factor;
      return std::make_unique<cache::MrsPolicy>(params);
    }};

const CachePolicyRegistrar kLruPolicy{
    "lru", [](const ComponentContext&) -> std::unique_ptr<cache::CachePolicy> {
      return std::make_unique<cache::LruPolicy>();
    }};

const CachePolicyRegistrar kLfuPolicy{
    "lfu", [](const ComponentContext&) -> std::unique_ptr<cache::CachePolicy> {
      return std::make_unique<cache::LfuPolicy>();
    }};

const CachePolicyRegistrar kFifoPolicy{
    "fifo", [](const ComponentContext&) -> std::unique_ptr<cache::CachePolicy> {
      return std::make_unique<cache::FifoPolicy>();
    }};

const CachePolicyRegistrar kRandomPolicy{
    "random", [](const ComponentContext& ctx) -> std::unique_ptr<cache::CachePolicy> {
      return std::make_unique<cache::RandomPolicy>(ctx.info.seed);
    }};

// -- Prefetchers (§IV-C and the AdapMoE baseline) ----------------------------

const PrefetcherRegistrar kImpactPrefetcher{
    "impact", [](const ComponentContext& ctx) -> std::unique_ptr<core::Prefetcher> {
      core::ImpactDrivenPrefetcher::Params params;
      if (ctx.spec.prefetch.depth.has_value()) params.depth = *ctx.spec.prefetch.depth;
      if (ctx.spec.prefetch.confidence_decay.has_value())
        params.confidence_decay = *ctx.spec.prefetch.confidence_decay;
      if (ctx.spec.prefetch.max_per_layer.has_value())
        params.max_per_layer = *ctx.spec.prefetch.max_per_layer;
      HYBRIMOE_ASSERT(ctx.scheduler != nullptr,
                      "the impact prefetcher is built after the scheduler");
      // Impact estimation simulates the schedule the prefetch will benefit,
      // so the options come from the stack's own scheduler.
      return std::make_unique<core::ImpactDrivenPrefetcher>(
          params, ctx.scheduler->impact_options());
    }};

const PrefetcherRegistrar kNextLayerPrefetcher{
    "next-layer", [](const ComponentContext& ctx) -> std::unique_ptr<core::Prefetcher> {
      if (ctx.spec.prefetch.max_per_layer.has_value())
        return std::make_unique<core::NextLayerTopPrefetcher>(
            *ctx.spec.prefetch.max_per_layer);
      return std::make_unique<core::NextLayerTopPrefetcher>();
    }};

const PrefetcherRegistrar kNoPrefetcher{
    "none", [](const ComponentContext&) -> std::unique_ptr<core::Prefetcher> {
      return nullptr;
    }};

// -- Topology presets (hw/topology.hpp) --------------------------------------

const TopologyRegistrar kA6000Topology{
    "a6000_xeon10", [] { return hw::Topology::a6000_xeon10(); }};

const TopologyRegistrar kDualA6000Topology{
    "dual_a6000", [] { return hw::Topology::dual_a6000(); }};

const TopologyRegistrar kQuadSimTopology{
    "quad_sim", [] { return hw::Topology::quad_sim(); }};

const TopologyRegistrar kLaptopEdgeTopology{
    "laptop_edge", [] { return hw::Topology::laptop_edge(); }};

const TopologyRegistrar kUnitTestTopology{
    "unit_test", [] { return hw::Topology::unit_test(); }};

}  // namespace

}  // namespace hybrimoe::runtime
