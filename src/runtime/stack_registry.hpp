#pragma once

/// \file stack_registry.hpp
/// Per-family component registries behind the StackSpec assembly path: each
/// scheduler / cache policy / prefetcher factory registers itself under its
/// string key, make_engine(StackSpec) resolves keys through these
/// registries, and unknown keys fail with a did-you-mean error listing the
/// registered names (util/registry.hpp).
///
/// Lifetime: each registry is a function-local static — constructed on first
/// access, alive for the rest of the process. The built-in components
/// (stack_registry.cpp) self-register via Registrar objects during static
/// initialisation of that translation unit, which is linked whenever
/// make_engine is; user code may register additional components at any time
/// before building a spec that names them. Registration is not
/// thread-safe — register before spawning engine threads.

#include <functional>
#include <memory>

#include "cache/policy.hpp"
#include "core/prefetcher.hpp"
#include "hw/cost_model.hpp"
#include "hw/topology.hpp"
#include "runtime/frameworks.hpp"
#include "sched/schedulers.hpp"
#include "util/registry.hpp"

namespace hybrimoe::runtime {

/// Everything a component factory may consult: the cost model (for model
/// shapes), the build info (cache ratio, seed, executor wiring) and the full
/// spec (per-component options). `scheduler` carries the already-built
/// scheduler for factories that depend on it — the impact prefetcher takes
/// its simulation options from the scheduler it will benefit — and is null
/// while the scheduler itself is being built.
struct ComponentContext {
  const hw::CostModel& costs;
  const EngineBuildInfo& info;
  const StackSpec& spec;
  sched::LayerScheduler* scheduler = nullptr;
};

/// Benchmark-pinned surface: bench/e2e wraps these factories, so the
/// SchedulerFactory, CachePolicyFactory and PrefetcherFactory types stay.
using SchedulerFactory =
    std::function<std::unique_ptr<sched::LayerScheduler>(const ComponentContext&)>;
using CachePolicyFactory =
    std::function<std::unique_ptr<cache::CachePolicy>(const ComponentContext&)>;
/// May return nullptr — the "none" prefetcher is registered as exactly that,
/// so spec validation and did-you-mean listings treat it as a first-class key.
using PrefetcherFactory =
    std::function<std::unique_ptr<core::Prefetcher>(const ComponentContext&)>;

/// Builds a named device topology. Factories take no context — a topology
/// is pure hardware description; TopologySpec's `devices` override is
/// applied afterwards by resolve_topology (frameworks.hpp).
using TopologyFactory = std::function<hw::Topology()>;

/// The scheduler family ("hybrid", "fixed-map", "gpu-centric", "static-layer").
[[nodiscard]] util::Registry<SchedulerFactory>& scheduler_registry();
/// The cache replacement-policy family ("mrs", "lru", "lfu", "fifo", "random").
[[nodiscard]] util::Registry<CachePolicyFactory>& cache_policy_registry();
/// The prefetcher family ("impact", "next-layer", "none").
[[nodiscard]] util::Registry<PrefetcherFactory>& prefetcher_registry();
/// The topology presets ("a6000_xeon10", "dual_a6000", "quad_sim",
/// "laptop_edge", "unit_test").
[[nodiscard]] util::Registry<TopologyFactory>& topology_registry();

/// Self-registration helpers: a namespace-scope registrar object adds its
/// factory when its translation unit is initialised.
///
///   namespace {
///   const runtime::SchedulerRegistrar reg{"my-sched", [](const auto& ctx) {
///     return std::make_unique<MyScheduler>(...);
///   }};
///   }  // namespace
struct SchedulerRegistrar {
  SchedulerRegistrar(std::string name, SchedulerFactory factory) {
    scheduler_registry().add(std::move(name), std::move(factory));
  }
};
struct CachePolicyRegistrar {
  CachePolicyRegistrar(std::string name, CachePolicyFactory factory) {
    cache_policy_registry().add(std::move(name), std::move(factory));
  }
};
struct PrefetcherRegistrar {
  PrefetcherRegistrar(std::string name, PrefetcherFactory factory) {
    prefetcher_registry().add(std::move(name), std::move(factory));
  }
};
/// Self-registration helper for topology presets (see SchedulerRegistrar).
struct TopologyRegistrar {
  TopologyRegistrar(std::string name, TopologyFactory factory) {
    topology_registry().add(std::move(name), std::move(factory));
  }
};

}  // namespace hybrimoe::runtime
