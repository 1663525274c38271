#pragma once

/// \file stack_spec.hpp
/// The declarative engine-assembly API: a StackSpec names every policy
/// component of an OffloadEngine by string key — scheduler, cache policy,
/// prefetcher — plus the engine flags that differ between frameworks, and
/// runtime::make_engine(spec, costs, info) assembles the stack through the
/// per-family registries (stack_registry.hpp). The five Framework presets
/// (frameworks.hpp) and the Table III ablation variants are plain specs, so
/// the whole cross-product of schedulers x cache policies x prefetchers x
/// execution modes is reachable without recompiling: benches take specs via
/// --stacks, and tools/hybrimoe_run serves a request stream from a spec
/// file.
///
/// Specs round-trip through a tiny hand-rolled JSON subset (objects,
/// strings, numbers, booleans — no dependency):
///
///   {"scheduler": "hybrid",
///    "cache": {"policy": "mrs", "ratio": 0.25},
///    "prefetch": "impact",
///    "topology": {"preset": "dual_a6000", "devices": 2},
///    "cache_maintenance": true,
///    "overhead_us": 40}
///
/// Component entries accept a bare string as shorthand for {"policy": ...}.
/// Unknown keys and unknown component names fail with a did-you-mean error
/// listing the accepted names; parse_stack_spec(to_json(s)) == s for every
/// valid spec.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "scenario/scenario_spec.hpp"
#include "serve_sim/kv.hpp"

namespace hybrimoe::exec {
enum class ExecutionMode : std::uint8_t;  // exec/executor.hpp
}

namespace hybrimoe::runtime {

/// How the engine's cache is pre-populated from warmup statistics.
enum class WarmupSeeding : std::uint8_t {
  None,    ///< no seeding (llama.cpp: residency is the static layer split)
  Seeded,  ///< hottest warmup experts inserted, evictable at runtime
  Pinned,  ///< hottest warmup experts pinned (kTransformers static placement)
};

[[nodiscard]] const char* to_string(WarmupSeeding w);
[[nodiscard]] WarmupSeeding warmup_from_name(std::string_view name);

/// Scheduler selection. Keys match sched::LayerScheduler::name():
/// "hybrid", "fixed-map", "gpu-centric", "static-layer".
struct SchedulerSpec {
  std::string policy = "hybrid";
  /// static-layer only: fraction of layers fully GPU-resident.
  /// Unset: the build's cache ratio (EngineBuildInfo::cache_ratio).
  std::optional<double> gpu_fraction;

  bool operator==(const SchedulerSpec&) const = default;
};

/// Cache selection: replacement policy ("mrs", "lru", "lfu", "fifo",
/// "random") and capacity ratio.
struct CacheSpec {
  std::string policy = "mrs";
  /// GPU expert cache capacity as a fraction of all routed experts.
  /// Unset: the build's cache ratio (EngineBuildInfo::cache_ratio).
  std::optional<double> ratio;
  std::optional<double> alpha;                ///< mrs only: Eq. 3 EMA coefficient
  std::optional<std::size_t> top_p_factor;    ///< mrs only: p = factor * top_k

  bool operator==(const CacheSpec&) const = default;
};

/// Device-complement selection: a named topology preset (registry key, see
/// topology_registry) plus an optional accelerator-count override that
/// replicates/truncates the preset's device list. Empty (the default) means
/// "whatever topology the caller's cost model was built with" — presets stay
/// byte-identical to their single-pair serialisations.
struct TopologySpec {
  std::string preset;                   ///< "" = the build's cost-model topology
  std::optional<std::size_t> devices;   ///< override accelerator count (>= 1)

  bool operator==(const TopologySpec&) const = default;

  /// True when nothing was requested (the spec defers to the cost model).
  [[nodiscard]] bool empty() const {
    return preset.empty() && !devices.has_value();
  }
};

/// Prefetcher selection: "impact", "next-layer" or "none".
struct PrefetchSpec {
  std::string policy = "impact";
  std::optional<std::size_t> depth;            ///< impact only: lookahead layers
  std::optional<double> confidence_decay;      ///< impact only: per-layer discount
  std::optional<std::size_t> max_per_layer;    ///< impact & next-layer: upload cap

  bool operator==(const PrefetchSpec&) const = default;
};

/// Default per-layer dispatch overhead for custom stacks (microseconds):
/// the native C++ runtime level (§V in-kernel task allocation), so that
/// off-preset comparisons isolate policy choices, not frontend overheads.
inline constexpr double kDefaultOverheadUs = 40.0;

/// A complete, declarative description of one inference stack. Value type:
/// copyable, comparable, JSON round-trippable. The five paper frameworks are
/// preset specs (preset_spec in frameworks.hpp); everything else is the
/// newly reachable cross-product.
struct StackSpec {
  /// Display name (engine name). Empty: derived from the component keys
  /// (default_name(), e.g. "hybrid+lru+impact").
  std::string name;
  SchedulerSpec scheduler;
  CacheSpec cache;
  PrefetchSpec prefetch;
  /// Device complement the stack is meant to run on. Callers build the cost
  /// model (or set ExperimentSpec::machine) via
  /// resolve_topology(spec.topology) (frameworks.hpp); make_engine
  /// cross-checks the accelerator count against the cost model it is given.
  TopologySpec topology;

  /// On-demand transfers and prefetches become cache residents.
  bool dynamic_cache_inserts = true;
  /// Feed per-layer routing scores to the cache policy (MRS needs this).
  bool update_policy_scores = true;
  /// Score-driven cache maintenance during idle PCIe time (§IV-D).
  bool cache_maintenance = true;
  /// Per-layer framework dispatch overhead in microseconds.
  /// Unset: kDefaultOverheadUs.
  std::optional<double> overhead_us;
  /// Cache pre-population from warmup statistics.
  WarmupSeeding warmup = WarmupSeeding::Seeded;
  /// Execution backend override ("simulated" / "threaded" / "performance").
  /// Unset: the build's mode (EngineBuildInfo::execution_mode).
  std::optional<exec::ExecutionMode> execution;
  /// Fault-injection scenario to run the stack under ("scenario": a preset
  /// name or an inline scenario object — see scenario/scenario_spec.hpp).
  /// Unset (the default): healthy topology, unshaped workload; preset specs
  /// stay byte-identical to their scenario-free serialisations.
  std::optional<scenario::ScenarioSpec> scenario;
  /// KV-cache accounting for serving runs ("kv": {"budget_mb": ...,
  /// "admission": ...} — see serve_sim/kv.hpp). Unset (the default): no
  /// accounting, and preset specs stay byte-identical to their KV-free
  /// serialisations. A bytes_per_token of 0 is resolved from the model at
  /// serve time (serve_sim::model_kv_bytes_per_token).
  std::optional<serve_sim::KvSpec> kv;

  bool operator==(const StackSpec&) const = default;

  /// Component-derived name: "<scheduler>+<cache>[+<prefetch>]".
  [[nodiscard]] std::string default_name() const;
  /// name if set, else default_name().
  [[nodiscard]] std::string display_name() const;

  /// \brief Full validation: every component key must be registered (unknown
  /// keys throw std::invalid_argument with a did-you-mean suggestion), every
  /// option must be in range, and options must match their component (e.g.
  /// cache "alpha" requires policy "mrs"). Called by make_engine.
  void validate() const;
};

/// \brief Parse the JSON-subset spec grammar documented above. Throws
/// std::invalid_argument with the offset and a did-you-mean suggestion on
/// unknown keys; the result is *structurally* valid but component names are
/// only checked by validate()/make_engine (registries may gain entries at
/// runtime).
[[nodiscard]] StackSpec parse_stack_spec(std::string_view text);

/// \brief Canonical JSON form; parse_stack_spec(to_json(s)) == s.
[[nodiscard]] std::string to_json(const StackSpec& spec);

/// \brief Quote + escape a string for the spec's JSON subset ("\\" and
/// "\""). Hand-written JSON emitters (bench/tool artifacts) must use this
/// for any interpolated spec name.
[[nodiscard]] std::string json_quote(std::string_view s);

}  // namespace hybrimoe::runtime
