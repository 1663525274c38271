#pragma once

/// \file frameworks.hpp
/// The evaluated inference frameworks (§VI-A.3) as canonical StackSpec
/// presets, plus the engine assembly entry point. Each framework is an
/// OffloadEngine assembled from the component set that mirrors the real
/// system's policy:
///
///  * llama.cpp      — static layer mapping, no expert cache;
///  * AdapMoE        — GPU-centric, LRU cache, next-layer prefetch;
///  * kTransformers  — fixed frequency mapping (pinned), LFU, CPU on decode
///                     misses;
///  * HybriMoE       — hybrid scheduling + MRS caching + impact prefetching;
///  * OnDemand       — pure on-demand GPU loading (Fig. 1(a) reference).
///
/// These are *presets*: preset_spec(f) returns the declarative StackSpec
/// (stack_spec.hpp). The Table III variants (ablation_specs()) are the
/// kTransformers preset with HybriMoE's techniques switched on, and every
/// engine — preset, ablation variant or arbitrary off-preset cross-product —
/// is assembled by make_engine(StackSpec), the one assembly path.

#include <array>
#include <iosfwd>
#include <memory>
#include <string_view>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/stack_spec.hpp"
#include "util/assert.hpp"

namespace hybrimoe::runtime {

/// A framework preset: the typed key of preset_spec and the preset registry.
enum class Framework : std::uint8_t {
  LlamaCpp,
  AdapMoE,
  KTransformers,
  HybriMoE,
  OnDemand,
};

/// Every framework, in enum order. The static_assert keeps this (and the
/// exhaustive switch in to_string) in lockstep with the enum: adding a
/// framework without updating both is a compile error.
inline constexpr std::array<Framework, 5> kAllFrameworks{
    Framework::LlamaCpp, Framework::AdapMoE, Framework::KTransformers,
    Framework::HybriMoE, Framework::OnDemand};
static_assert(kAllFrameworks.size() ==
                  static_cast<std::size_t>(Framework::OnDemand) + 1,
              "kAllFrameworks and to_string must cover every Framework value");

/// Canonical display name. Unknown enum values are unrepresentable at this
/// boundary: the switch is exhaustive over the enum and anything cast past
/// it throws (std::logic_error) instead of silently returning a
/// placeholder.
[[nodiscard]] constexpr const char* to_string(Framework f) {
  switch (f) {
    case Framework::LlamaCpp: return "llama.cpp";
    case Framework::AdapMoE: return "AdapMoE";
    case Framework::KTransformers: return "KTransformers";
    case Framework::HybriMoE: return "HybriMoE";
    case Framework::OnDemand: return "OnDemand";
  }
  HYBRIMOE_ASSERT(false, "unrepresentable Framework value");
}

/// Name -> Framework through the preset registry: unknown names throw with a
/// did-you-mean suggestion listing every registered preset.
[[nodiscard]] Framework framework_from_name(std::string_view name);

/// Registered preset names, sorted.
[[nodiscard]] std::vector<std::string> preset_names();

/// The four frameworks of Figs. 7/8, in the paper's legend order.
inline constexpr std::array<Framework, 4> kPaperFrameworks{
    Framework::LlamaCpp, Framework::AdapMoE, Framework::KTransformers,
    Framework::HybriMoE};

/// Everything needed to assemble an engine that is *not* part of the
/// declarative stack description: per-experiment context (cache budget,
/// warmup statistics, seed) and runtime wiring (execution backend). A spec
/// may override cache_ratio (CacheSpec::ratio) and execution_mode
/// (StackSpec::execution); everything else is build-info-only.
struct EngineBuildInfo {
  double cache_ratio = 0.25;  ///< GPU expert cache ratio (paper: 25/50/75%)
  /// Warmup activation frequencies (layer x expert); used to seed the cache
  /// and to pick kTransformers' static placement. May be empty.
  std::vector<std::vector<double>> warmup_frequencies;
  std::uint64_t seed = 1;  ///< randomized policies only
  /// Execution backend wiring (see EngineComponents::execution_mode):
  /// Simulated with no executor by default; every framework built from the
  /// same info shares the executor (and therefore its deterministic weight
  /// store, making output digests comparable across frameworks).
  exec::ExecutionMode execution_mode = exec::ExecutionMode::Simulated;
  std::shared_ptr<exec::HybridExecutor> executor;
};

/// \brief The canonical declarative spec of a framework preset — the exact
/// component set the closed factory used to hard-code. Mutate the result to
/// explore off-preset stacks.
/// Benchmark-pinned surface: bench/e2e calls it, so its signature stays.
[[nodiscard]] StackSpec preset_spec(Framework framework);

/// \brief preset_spec by name (framework_from_name rules).
[[nodiscard]] StackSpec preset_spec(std::string_view name);

/// \brief The Table III ablation variants in the paper's row order:
/// "Baseline", "Baseline+Scheduling", "Baseline+Prefetching",
/// "Baseline+Caching", "All" — each the KTransformers preset renamed, with
/// hybrid scheduling, impact prefetching and/or MRS caching switched on.
/// Options stay unset (registry defaults); mutate a returned spec to sweep
/// them.
[[nodiscard]] std::vector<StackSpec> ablation_specs();

/// \brief Resolve a TopologySpec against the topology registry: empty
/// preset means the paper testbed (hw::Topology::a6000_xeon10()); a
/// `devices` override that differs from the preset's count is
/// hw::Topology::replicated(preset, devices), named "<preset name>
/// [devices=N]". Callers build their hw::CostModel from the result (or set
/// ExperimentSpec::machine to it) before make_engine.
[[nodiscard]] hw::Topology resolve_topology(const TopologySpec& spec);

/// \brief Resolve one stack argument — the CLI grammar shared by the
/// benches' --stacks flag and tools/hybrimoe_run: a registered preset name
/// ("HybriMoE"), an inline JSON spec ("{...}"), or "@path" to a spec file.
/// Throws std::invalid_argument (did-you-mean on unknown presets, offset +
/// suggestion on malformed specs, message on unreadable files).
[[nodiscard]] StackSpec resolve_stack(const std::string& arg);

/// \brief Print the --list-stacks catalogue: every preset with its
/// canonical JSON, and every registered component per family.
void print_stack_catalog(std::ostream& os);

/// \brief Assemble an engine from a declarative stack spec — the one true
/// assembly path. Resolves every component key through the registries
/// (stack_registry.hpp); throws std::invalid_argument with a did-you-mean
/// message on unknown keys and on out-of-range options (StackSpec::validate).
[[nodiscard]] std::unique_ptr<OffloadEngine> make_engine(const StackSpec& spec,
                                                         const hw::CostModel& costs,
                                                         const EngineBuildInfo& info);

}  // namespace hybrimoe::runtime
