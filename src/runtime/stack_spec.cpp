#include "runtime/stack_spec.hpp"

#include <sstream>
#include <variant>
#include <vector>

#include "cache/mrs_policy.hpp"
#include "core/prefetcher.hpp"
#include "exec/executor.hpp"
#include "runtime/stack_registry.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/json_writer.hpp"
#include "util/registry.hpp"

namespace hybrimoe::runtime {

namespace {

// The JSON machinery (parser, typed accessors, emission helpers) lives in
// util/json.hpp, shared with the scenario spec grammar. "stack spec" is the
// context stamped into every error message.
using JsonValue = util::json::Value;
using JsonObject = util::json::Object;
using util::json::as_bool;
using util::json::as_count;
using util::json::as_number;
using util::json::as_string;
using Inline = util::JsonWriter::Inline;

[[noreturn]] void spec_error(std::size_t offset, const std::string& message) {
  util::json::error("stack spec", offset, message);
}

// ---------------------------------------------------------------------------
// JsonValue -> StackSpec with per-object allowed-key checking.
// ---------------------------------------------------------------------------

[[noreturn]] void unknown_key(const JsonValue& value, std::string_view family,
                              std::string_view key,
                              const std::vector<std::string>& allowed) {
  spec_error(value.offset, util::unknown_name_message(family, key, allowed));
}

/// "scheduler": "hybrid"  |  {"policy": "hybrid", "gpu_fraction": 0.5}
SchedulerSpec parse_scheduler(const JsonValue& v) {
  SchedulerSpec out;
  if (v.is_string()) {
    out.policy = std::get<std::string>(v.value);
    return out;
  }
  if (!v.is_object()) spec_error(v.offset, "'scheduler' must be a string or an object");
  static const std::vector<std::string> kKeys{"gpu_fraction", "policy"};
  for (const auto& [key, value] : std::get<JsonObject>(v.value)) {
    if (key == "policy") {
      out.policy = as_string(value, key);
    } else if (key == "gpu_fraction") {
      out.gpu_fraction = as_number(value, key);
    } else {
      unknown_key(value, "scheduler option", key, kKeys);
    }
  }
  return out;
}

/// "cache": "lru"  |  {"policy": "mrs", "ratio": 0.25, "alpha": 0.3, ...}
CacheSpec parse_cache(const JsonValue& v) {
  CacheSpec out;
  if (v.is_string()) {
    out.policy = std::get<std::string>(v.value);
    return out;
  }
  if (!v.is_object()) spec_error(v.offset, "'cache' must be a string or an object");
  static const std::vector<std::string> kKeys{"alpha", "policy", "ratio", "top_p_factor"};
  for (const auto& [key, value] : std::get<JsonObject>(v.value)) {
    if (key == "policy") {
      out.policy = as_string(value, key);
    } else if (key == "ratio") {
      out.ratio = as_number(value, key);
    } else if (key == "alpha") {
      out.alpha = as_number(value, key);
    } else if (key == "top_p_factor") {
      out.top_p_factor = as_count(value, key);
    } else {
      unknown_key(value, "cache option", key, kKeys);
    }
  }
  return out;
}

/// "prefetch": "impact"  |  {"policy": "impact", "depth": 3, ...}
PrefetchSpec parse_prefetch(const JsonValue& v) {
  PrefetchSpec out;
  if (v.is_string()) {
    out.policy = std::get<std::string>(v.value);
    return out;
  }
  if (!v.is_object()) spec_error(v.offset, "'prefetch' must be a string or an object");
  static const std::vector<std::string> kKeys{"confidence_decay", "depth",
                                              "max_per_layer", "policy"};
  for (const auto& [key, value] : std::get<JsonObject>(v.value)) {
    if (key == "policy") {
      out.policy = as_string(value, key);
    } else if (key == "depth") {
      out.depth = as_count(value, key);
    } else if (key == "confidence_decay") {
      out.confidence_decay = as_number(value, key);
    } else if (key == "max_per_layer") {
      out.max_per_layer = as_count(value, key);
    } else {
      unknown_key(value, "prefetch option", key, kKeys);
    }
  }
  return out;
}

/// "topology": "dual_a6000"  |  {"preset": "quad_sim", "devices": 4}
TopologySpec parse_topology(const JsonValue& v) {
  TopologySpec out;
  if (v.is_string()) {
    out.preset = std::get<std::string>(v.value);
    return out;
  }
  if (!v.is_object()) spec_error(v.offset, "'topology' must be a string or an object");
  static const std::vector<std::string> kKeys{"devices", "preset"};
  for (const auto& [key, value] : std::get<JsonObject>(v.value)) {
    if (key == "preset") {
      out.preset = as_string(value, key);
    } else if (key == "devices") {
      out.devices = as_count(value, key);
    } else {
      unknown_key(value, "topology option", key, kKeys);
    }
  }
  return out;
}

}  // namespace

const char* to_string(WarmupSeeding w) {
  switch (w) {
    case WarmupSeeding::None: return "none";
    case WarmupSeeding::Seeded: return "seeded";
    case WarmupSeeding::Pinned: return "pinned";
  }
  HYBRIMOE_ASSERT(false, "unrepresentable WarmupSeeding value");
}

WarmupSeeding warmup_from_name(std::string_view name) {
  if (name == "none") return WarmupSeeding::None;
  if (name == "seeded") return WarmupSeeding::Seeded;
  if (name == "pinned") return WarmupSeeding::Pinned;
  static const std::vector<std::string> kNames{"none", "pinned", "seeded"};
  throw std::invalid_argument(util::unknown_name_message("warmup seeding", name, kNames));
}

std::string StackSpec::default_name() const {
  std::string out = scheduler.policy + "+" + cache.policy;
  if (prefetch.policy != "none") out += "+" + prefetch.policy;
  return out;
}

std::string StackSpec::display_name() const {
  return name.empty() ? default_name() : name;
}

void StackSpec::validate() const {
  // Component names resolve through the registries, so unknown names fail
  // with the registry's did-you-mean message listing what is available.
  (void)scheduler_registry().get(scheduler.policy);
  (void)cache_policy_registry().get(cache.policy);
  (void)prefetcher_registry().get(prefetch.policy);

  if (scheduler.gpu_fraction.has_value()) {
    HYBRIMOE_REQUIRE(scheduler.policy == "static-layer",
                     "scheduler option 'gpu_fraction' only applies to policy "
                     "'static-layer' (got '" + scheduler.policy + "')");
    HYBRIMOE_REQUIRE(*scheduler.gpu_fraction >= 0.0 && *scheduler.gpu_fraction <= 1.0,
                     "scheduler 'gpu_fraction' must be in [0, 1]");
  }

  if (cache.ratio.has_value())
    HYBRIMOE_REQUIRE(*cache.ratio >= 0.0 && *cache.ratio <= 1.0,
                     "cache 'ratio' must be in [0, 1]");
  if (cache.alpha.has_value() || cache.top_p_factor.has_value()) {
    HYBRIMOE_REQUIRE(cache.policy == "mrs",
                     "cache options 'alpha'/'top_p_factor' only apply to policy "
                     "'mrs' (got '" + cache.policy + "')");
    cache::MrsPolicy::Params params;
    if (cache.alpha.has_value()) params.alpha = *cache.alpha;
    if (cache.top_p_factor.has_value()) params.top_p_factor = *cache.top_p_factor;
    params.validate();
  }

  if (prefetch.depth.has_value() || prefetch.confidence_decay.has_value())
    HYBRIMOE_REQUIRE(prefetch.policy == "impact",
                     "prefetch options 'depth'/'confidence_decay' only apply to "
                     "policy 'impact' (got '" + prefetch.policy + "')");
  if (prefetch.max_per_layer.has_value())
    HYBRIMOE_REQUIRE(prefetch.policy == "impact" || prefetch.policy == "next-layer",
                     "prefetch option 'max_per_layer' requires a prefetching "
                     "policy (got '" + prefetch.policy + "')");
  if (prefetch.policy == "impact") {
    core::ImpactDrivenPrefetcher::Params params;
    if (prefetch.depth.has_value()) params.depth = *prefetch.depth;
    if (prefetch.confidence_decay.has_value())
      params.confidence_decay = *prefetch.confidence_decay;
    if (prefetch.max_per_layer.has_value()) params.max_per_layer = *prefetch.max_per_layer;
    params.validate();
  } else if (prefetch.max_per_layer.has_value()) {
    HYBRIMOE_REQUIRE(*prefetch.max_per_layer >= 1,
                     "prefetch 'max_per_layer' must be >= 1");
  }

  if (!topology.preset.empty()) (void)topology_registry().get(topology.preset);
  if (topology.devices.has_value())
    HYBRIMOE_REQUIRE(*topology.devices >= 1 && *topology.devices <= 254,
                     "topology 'devices' must be in [1, 254]");

  if (overhead_us.has_value())
    HYBRIMOE_REQUIRE(*overhead_us >= 0.0, "'overhead_us' must be >= 0");

  if (kv.has_value()) kv->validate();
}

StackSpec parse_stack_spec(std::string_view text) {
  const JsonValue document =
      util::json::Parser(text, "stack spec").parse_document();
  static const std::vector<std::string> kKeys{
      "cache",          "cache_maintenance", "dynamic_inserts", "exec",
      "kv",             "name",              "overhead_us",     "prefetch",
      "scenario",       "scheduler",         "topology",        "update_scores",
      "warmup"};

  StackSpec spec;
  for (const auto& [key, value] : std::get<JsonObject>(document.value)) {
    if (key == "name") {
      spec.name = as_string(value, key);
    } else if (key == "scheduler") {
      spec.scheduler = parse_scheduler(value);
    } else if (key == "cache") {
      spec.cache = parse_cache(value);
    } else if (key == "prefetch") {
      spec.prefetch = parse_prefetch(value);
    } else if (key == "topology") {
      spec.topology = parse_topology(value);
    } else if (key == "dynamic_inserts") {
      spec.dynamic_cache_inserts = as_bool(value, key);
    } else if (key == "update_scores") {
      spec.update_policy_scores = as_bool(value, key);
    } else if (key == "cache_maintenance") {
      spec.cache_maintenance = as_bool(value, key);
    } else if (key == "overhead_us") {
      spec.overhead_us = as_number(value, key);
    } else if (key == "warmup") {
      const std::string& name = as_string(value, key);
      try {
        spec.warmup = warmup_from_name(name);
      } catch (const std::invalid_argument& e) {
        spec_error(value.offset, e.what());
      }
    } else if (key == "exec") {
      const std::string& name = as_string(value, key);
      try {
        spec.execution = exec::execution_mode_from_name(name);
      } catch (const std::invalid_argument& e) {
        spec_error(value.offset, e.what());
      }
    } else if (key == "scenario") {
      if (value.is_string()) {
        try {
          spec.scenario =
              scenario::scenario_registry().get(std::get<std::string>(value.value));
        } catch (const std::invalid_argument& e) {
          spec_error(value.offset, e.what());
        }
      } else {
        spec.scenario = scenario::scenario_from_json(value);
      }
    } else if (key == "kv") {
      spec.kv = serve_sim::kv_from_json(value);
    } else {
      unknown_key(value, "spec key", key, kKeys);
    }
  }
  return spec;
}

std::string to_json(const StackSpec& spec) {
  std::ostringstream os;
  Inline w(os);

  if (!spec.name.empty()) w.field("name").string(spec.name);

  w.field("scheduler");
  if (spec.scheduler.gpu_fraction.has_value()) {
    Inline(os)
        .field("policy").string(spec.scheduler.policy)
        .field("gpu_fraction").exact(*spec.scheduler.gpu_fraction)
        .close();
  } else {
    w.string(spec.scheduler.policy);
  }

  const bool cache_policy_only = !spec.cache.ratio.has_value() &&
                                 !spec.cache.alpha.has_value() &&
                                 !spec.cache.top_p_factor.has_value();
  w.field("cache");
  if (cache_policy_only) {
    w.string(spec.cache.policy);
  } else {
    Inline cache(os);
    cache.field("policy").string(spec.cache.policy);
    if (spec.cache.ratio.has_value()) cache.field("ratio").exact(*spec.cache.ratio);
    if (spec.cache.alpha.has_value()) cache.field("alpha").exact(*spec.cache.alpha);
    if (spec.cache.top_p_factor.has_value())
      cache.field("top_p_factor").number(*spec.cache.top_p_factor);
    cache.close();
  }

  const bool prefetch_policy_only = !spec.prefetch.depth.has_value() &&
                                    !spec.prefetch.confidence_decay.has_value() &&
                                    !spec.prefetch.max_per_layer.has_value();
  w.field("prefetch");
  if (prefetch_policy_only) {
    w.string(spec.prefetch.policy);
  } else {
    Inline prefetch(os);
    prefetch.field("policy").string(spec.prefetch.policy);
    if (spec.prefetch.depth.has_value()) prefetch.field("depth").number(*spec.prefetch.depth);
    if (spec.prefetch.confidence_decay.has_value())
      prefetch.field("confidence_decay").exact(*spec.prefetch.confidence_decay);
    if (spec.prefetch.max_per_layer.has_value())
      prefetch.field("max_per_layer").number(*spec.prefetch.max_per_layer);
    prefetch.close();
  }

  if (!spec.topology.empty()) {
    w.field("topology");
    if (spec.topology.devices.has_value()) {
      Inline(os)
          .field("preset").string(spec.topology.preset)
          .field("devices").number(*spec.topology.devices)
          .close();
    } else {
      w.string(spec.topology.preset);
    }
  }

  w.field("dynamic_inserts").boolean(spec.dynamic_cache_inserts);
  w.field("update_scores").boolean(spec.update_policy_scores);
  w.field("cache_maintenance").boolean(spec.cache_maintenance);
  if (spec.overhead_us.has_value()) w.field("overhead_us").exact(*spec.overhead_us);
  w.field("warmup").string(to_string(spec.warmup));
  if (spec.execution.has_value())
    w.field("exec").string(exec::to_string(*spec.execution));
  if (spec.scenario.has_value()) w.field("scenario").raw(scenario::to_json(*spec.scenario));
  if (spec.kv.has_value()) w.field("kv").raw(serve_sim::to_json(*spec.kv));
  w.close();
  return os.str();
}

}  // namespace hybrimoe::runtime
