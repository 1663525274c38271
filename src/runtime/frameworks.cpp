#include "runtime/frameworks.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "cache/expert_cache.hpp"
#include "cache/mrs_policy.hpp"
#include "core/warmup.hpp"
#include "runtime/stack_registry.hpp"
#include "util/assert.hpp"

namespace hybrimoe::runtime {

namespace {

/// Per-layer dispatch overheads in microseconds (§V): Python-orchestrated
/// frameworks pay a synchronisation/dispatch cost every MoE layer;
/// llama.cpp is native C++; HybriMoE moves allocation into the C++ kernels.
/// Microseconds are the spec unit; assembly divides by the exactly
/// representable 1e6, which reproduces the historical `Xe-6` second
/// constants bit for bit.
constexpr double kPythonOverheadUs = 150.0;   // AdapMoE-style PyTorch loop
constexpr double kKTransOverheadUs = 120.0;   // Python frontend + C++ kernels
constexpr double kLlamaCppOverheadUs = 60.0;  // native C++ graph walk
constexpr double kHybriMoeOverheadUs = 40.0;  // in-kernel task allocation

util::Registry<Framework>& framework_registry() {
  static util::Registry<Framework> registry = [] {
    util::Registry<Framework> r("framework preset");
    for (const Framework f : kAllFrameworks) r.add(to_string(f), f);
    return r;
  }();
  return registry;
}

}  // namespace

Framework framework_from_name(std::string_view name) {
  return framework_registry().get(name);
}

std::vector<std::string> preset_names() { return framework_registry().names(); }

StackSpec preset_spec(Framework framework) {
  StackSpec spec;  // defaults are the full HybriMoE component set
  spec.name = to_string(framework);
  switch (framework) {
    case Framework::HybriMoE: {
      spec.overhead_us = kHybriMoeOverheadUs;
      break;
    }
    case Framework::KTransformers: {
      spec.scheduler.policy = "fixed-map";
      spec.cache.policy = "lfu";
      spec.prefetch.policy = "none";
      spec.dynamic_cache_inserts = false;  // static placement
      spec.update_policy_scores = false;
      spec.cache_maintenance = false;
      spec.overhead_us = kKTransOverheadUs;
      spec.warmup = WarmupSeeding::Pinned;
      break;
    }
    case Framework::AdapMoE: {
      spec.scheduler.policy = "gpu-centric";
      spec.cache.policy = "lru";
      spec.prefetch.policy = "next-layer";
      spec.update_policy_scores = false;
      spec.cache_maintenance = false;
      spec.overhead_us = kPythonOverheadUs;
      break;
    }
    case Framework::LlamaCpp: {
      spec.scheduler.policy = "static-layer";
      // llama.cpp has no expert cache; residency is the static layer split
      // (the scheduler's gpu_fraction stays unset = the build's cache ratio).
      spec.cache.policy = "lru";
      spec.cache.ratio = 0.0;
      spec.prefetch.policy = "none";
      spec.dynamic_cache_inserts = false;
      spec.update_policy_scores = false;
      spec.cache_maintenance = false;
      spec.overhead_us = kLlamaCppOverheadUs;
      spec.warmup = WarmupSeeding::None;
      break;
    }
    case Framework::OnDemand: {
      spec.scheduler.policy = "gpu-centric";
      spec.cache.policy = "lru";
      spec.prefetch.policy = "none";
      spec.update_policy_scores = false;
      spec.cache_maintenance = false;
      spec.overhead_us = kPythonOverheadUs;
      break;
    }
  }
  return spec;
}

StackSpec preset_spec(std::string_view name) {
  return preset_spec(framework_from_name(name));
}

std::vector<StackSpec> ablation_specs() {
  struct Variant {
    const char* name;
    bool scheduling, prefetching, caching;
  };
  constexpr Variant kVariants[] = {
      {"Baseline", false, false, false},
      {"Baseline+Scheduling", true, false, false},
      {"Baseline+Prefetching", false, true, false},
      {"Baseline+Caching", false, false, true},
      {"All", true, true, true},
  };
  std::vector<StackSpec> specs;
  for (const Variant& v : kVariants) {
    // Every variant keeps the baseline's dispatch overhead: the ablation
    // isolates the three techniques, not the C++ reimplementation.
    StackSpec spec = preset_spec(Framework::KTransformers);
    spec.name = v.name;
    if (v.scheduling) spec.scheduler.policy = "hybrid";
    if (v.prefetching) spec.prefetch.policy = "impact";
    if (v.caching) {
      spec.cache.policy = "mrs";
      spec.update_policy_scores = true;
      spec.cache_maintenance = true;
    }
    if (v.scheduling || v.prefetching || v.caching) {
      // Any technique admits its own transfers, so the warmup placement
      // becomes evictable instead of pinned.
      spec.dynamic_cache_inserts = true;
      spec.warmup = WarmupSeeding::Seeded;
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

hw::Topology resolve_topology(const TopologySpec& spec) {
  hw::Topology topology = spec.preset.empty()
                              ? hw::Topology::a6000_xeon10()
                              : topology_registry().get(spec.preset)();
  if (spec.devices.has_value() && *spec.devices != topology.num_accelerators()) {
    HYBRIMOE_REQUIRE(*spec.devices >= 1 && *spec.devices <= 254,
                     "topology 'devices' must be in [1, 254]");
    topology = hw::Topology::replicated(
        topology, *spec.devices,
        topology.name + " [devices=" + std::to_string(*spec.devices) + "]");
  }
  topology.validate();
  return topology;
}

StackSpec resolve_stack(const std::string& arg) {
  if (!arg.empty() && arg.front() == '@') {
    const std::string path = arg.substr(1);
    std::ifstream in(path);
    if (!in) throw std::invalid_argument("cannot open stack spec file '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse_stack_spec(buffer.str());
  }
  if (!arg.empty() && arg.front() == '{') return parse_stack_spec(arg);
  return preset_spec(arg);
}

void print_stack_catalog(std::ostream& os) {
  os << "Framework presets (use the name, or mutate the JSON):\n";
  for (const auto& name : preset_names())
    os << "  " << name << "\n    " << to_json(preset_spec(name)) << "\n";
  auto family = [&os](const char* label, const std::vector<std::string>& names) {
    os << label << ":";
    for (const auto& name : names) os << " " << name;
    os << "\n";
  };
  family("Schedulers", scheduler_registry().names());
  family("Cache policies", cache_policy_registry().names());
  family("Prefetchers", prefetcher_registry().names());
  family("Topology presets", topology_registry().names());
  os << "Stack arguments: preset name | inline JSON ('{...}') | @spec-file\n";
}

std::unique_ptr<OffloadEngine> make_engine(const StackSpec& spec,
                                           const hw::CostModel& costs,
                                           const EngineBuildInfo& info) {
  spec.validate();
  const moe::ModelConfig& model = costs.model();
  ComponentContext ctx{costs, info, spec, nullptr};

  // The spec's topology section describes the device complement the caller
  // must have built the cost model with (resolve_topology); an accelerator
  // count mismatch here means the two disagree.
  if (!spec.topology.empty()) {
    const std::size_t want = resolve_topology(spec.topology).num_accelerators();
    HYBRIMOE_REQUIRE(want == costs.num_accelerators(),
                     "stack spec names a topology with " + std::to_string(want) +
                         " accelerator(s) but the cost model was built with " +
                         std::to_string(costs.num_accelerators()) +
                         " — build the CostModel via resolve_topology(spec.topology)");
  }

  EngineComponents c;
  c.name = spec.display_name();
  c.scheduler = scheduler_registry().get(spec.scheduler.policy)(ctx);
  ctx.scheduler = c.scheduler.get();

  const double ratio = spec.cache.ratio.value_or(info.cache_ratio);
  const CachePolicyFactory& policy_factory =
      cache_policy_registry().get(spec.cache.policy);
  const auto capacity_split = costs.topology().split_cache_capacity(
      cache::ExpertCache::capacity_for_ratio(model, ratio));
  c.caches.push_back(
      std::make_unique<cache::ExpertCache>(capacity_split.front(), policy_factory(ctx)));
  // Per-device caches share one Eq. 3 score table when the policy is MRS —
  // routing scores are device-independent (the engine feeds the primary
  // cache only); every other policy keeps independent per-device state.
  const auto* mrs = dynamic_cast<const cache::MrsPolicy*>(&c.caches.front()->policy());
  for (std::size_t a = 1; a < capacity_split.size(); ++a) {
    std::unique_ptr<cache::CachePolicy> device_policy =
        mrs != nullptr ? mrs->share_table() : policy_factory(ctx);
    c.caches.push_back(std::make_unique<cache::ExpertCache>(capacity_split[a],
                                                            std::move(device_policy)));
  }
  c.prefetcher = prefetcher_registry().get(spec.prefetch.policy)(ctx);

  c.dynamic_cache_inserts = spec.dynamic_cache_inserts;
  c.update_policy_scores = spec.update_policy_scores;
  c.cache_maintenance = spec.cache_maintenance;
  c.per_layer_overhead = spec.overhead_us.value_or(kDefaultOverheadUs) / 1e6;
  c.execution_mode = spec.execution.value_or(info.execution_mode);
  c.executor = info.executor;

  auto engine = std::make_unique<OffloadEngine>(std::move(c), costs);
  if (spec.warmup != WarmupSeeding::None && !info.warmup_frequencies.empty()) {
    // Seed against the *total* budget — seed_cache spreads the hottest
    // experts round-robin across the device caches (equals the primary
    // capacity on single-accelerator topologies).
    std::size_t total_capacity = 0;
    for (const std::size_t cap : capacity_split) total_capacity += cap;
    const auto hottest = core::hottest_experts(info.warmup_frequencies, total_capacity);
    engine->seed_cache(hottest, spec.warmup == WarmupSeeding::Pinned);
  }
  return engine;
}

}  // namespace hybrimoe::runtime
