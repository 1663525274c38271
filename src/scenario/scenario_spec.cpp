#include "scenario/scenario_spec.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <variant>
#include <vector>

#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/json_writer.hpp"

namespace hybrimoe::scenario {

namespace {

using JsonValue = util::json::Value;
using JsonObject = util::json::Object;
using util::json::as_count;
using util::json::as_number;
using util::json::as_string;

/// Every key the grammar accepts, sorted (for did-you-mean suggestions).
const std::vector<std::string> kAllKeys{
    "accel",      "bandwidth_scale", "end_step",       "family",
    "lose_step",  "recover_step",    "seed",           "start_step",
    "storm_requests", "storm_time",  "stride"};

/// Which parameter keys apply to which family ("family" and "seed" always
/// apply). A key outside its family is a hard error, not silently ignored —
/// a spec that sets "bandwidth_scale" on device_loss is a confused spec.
bool key_applies(Family family, std::string_view key) {
  if (key == "family" || key == "seed") return true;
  switch (family) {
    case Family::StragglerLink:
      return key == "accel" || key == "start_step" || key == "end_step" ||
             key == "bandwidth_scale";
    case Family::DeviceLoss:
      return key == "accel" || key == "lose_step" || key == "recover_step";
    case Family::CacheThrash:
      return key == "start_step" || key == "end_step" || key == "stride";
    case Family::OverloadStorm:
      return key == "storm_time" || key == "storm_requests";
  }
  return false;
}

}  // namespace

void ScenarioSpec::validate() const {
  switch (family) {
    case Family::StragglerLink:
      HYBRIMOE_REQUIRE(bandwidth_scale > 0.0,
                       "scenario 'bandwidth_scale' must be positive");
      HYBRIMOE_REQUIRE(end_step == 0 || end_step > start_step,
                       "scenario 'end_step' must be 0 (open) or after 'start_step'");
      break;
    case Family::DeviceLoss:
      HYBRIMOE_REQUIRE(accel >= 1,
                       "scenario 'device_loss' cannot target accelerator 0 "
                       "(the primary accelerator hosts the dense pipeline)");
      HYBRIMOE_REQUIRE(recover_step == 0 || recover_step > lose_step,
                       "scenario 'recover_step' must be 0 (never) or after "
                       "'lose_step'");
      break;
    case Family::CacheThrash:
      HYBRIMOE_REQUIRE(stride >= 1, "scenario 'stride' must be >= 1");
      HYBRIMOE_REQUIRE(end_step == 0 || end_step > start_step,
                       "scenario 'end_step' must be 0 (open) or after 'start_step'");
      break;
    case Family::OverloadStorm:
      HYBRIMOE_REQUIRE(storm_time >= 0.0, "scenario 'storm_time' must be >= 0");
      HYBRIMOE_REQUIRE(storm_requests >= 1,
                       "scenario 'storm_requests' must be >= 1");
      break;
  }
}

util::Registry<ScenarioSpec>& scenario_registry() {
  static util::Registry<ScenarioSpec>* registry = [] {
    auto* r = new util::Registry<ScenarioSpec>("scenario");
    {
      ScenarioSpec s;
      s.family = Family::StragglerLink;
      s.accel = 0;
      s.start_step = 8;
      s.end_step = 24;
      s.bandwidth_scale = 0.1;
      r->add("straggler_link", s);
    }
    {
      ScenarioSpec s;
      s.family = Family::DeviceLoss;
      s.accel = 1;
      s.lose_step = 8;
      s.recover_step = 24;
      r->add("device_loss", s);
    }
    {
      ScenarioSpec s;
      s.family = Family::CacheThrash;
      s.start_step = 4;
      s.end_step = 0;  // thrash until the run ends
      s.stride = 3;
      r->add("cache_thrash", s);
    }
    {
      ScenarioSpec s;
      s.family = Family::OverloadStorm;
      s.storm_time = 0.05;
      s.storm_requests = 32;
      r->add("overload_storm", s);
    }
    return r;
  }();
  return *registry;
}

ScenarioSpec parse_scenario_spec(std::string_view text) {
  return scenario_from_json(
      util::json::Parser(text, "scenario spec").parse_document());
}

ScenarioSpec scenario_from_json(const util::json::Value& document) {
  if (!document.is_object())
    util::json::error_at(document, "a scenario must be a JSON object");
  const auto& object = std::get<JsonObject>(document.value);

  // Pass 1: the family is required and seeds the defaults — every other key
  // overrides the family preset, so {"family": "device_loss"} alone is the
  // canonical device-loss scenario.
  ScenarioSpec spec;
  bool family_seen = false;
  for (const auto& [key, value] : object) {
    if (key != "family") continue;
    const std::string& name = as_string(value, key);
    try {
      spec = scenario_registry().get(name);
    } catch (const std::invalid_argument& e) {
      util::json::error(value.context, value.offset, e.what());
    }
    family_seen = true;
  }
  if (!family_seen)
    util::json::error_at(document, "a scenario requires a 'family' key");

  // Pass 2: overrides, each checked against the family's key set.
  for (const auto& [key, value] : object) {
    if (key == "family") continue;
    const bool known =
        std::find(kAllKeys.begin(), kAllKeys.end(), key) != kAllKeys.end();
    if (!known)
      util::json::error(value.context, value.offset,
                        util::unknown_name_message("scenario key", key, kAllKeys));
    if (!key_applies(spec.family, key))
      util::json::error(value.context, value.offset,
                        "key '" + key + "' does not apply to scenario '" +
                            std::string(to_string(spec.family)) + "'");
    if (key == "seed") {
      spec.seed = static_cast<std::uint64_t>(as_count(value, key));
    } else if (key == "accel") {
      spec.accel = as_count(value, key);
    } else if (key == "start_step") {
      spec.start_step = as_count(value, key);
    } else if (key == "end_step") {
      spec.end_step = as_count(value, key);
    } else if (key == "bandwidth_scale") {
      spec.bandwidth_scale = as_number(value, key);
    } else if (key == "lose_step") {
      spec.lose_step = as_count(value, key);
    } else if (key == "recover_step") {
      spec.recover_step = as_count(value, key);
    } else if (key == "stride") {
      spec.stride = as_count(value, key);
    } else if (key == "storm_time") {
      spec.storm_time = as_number(value, key);
    } else if (key == "storm_requests") {
      spec.storm_requests = as_count(value, key);
    }
  }
  spec.validate();
  return spec;
}

std::string to_json(const ScenarioSpec& spec) {
  std::ostringstream os;
  util::JsonWriter::Inline w(os);
  w.field("family").string(to_string(spec.family));
  w.field("seed").number(spec.seed);
  switch (spec.family) {
    case Family::StragglerLink:
      w.field("accel").number(spec.accel);
      w.field("start_step").number(spec.start_step);
      w.field("end_step").number(spec.end_step);
      w.field("bandwidth_scale").exact(spec.bandwidth_scale);
      break;
    case Family::DeviceLoss:
      w.field("accel").number(spec.accel);
      w.field("lose_step").number(spec.lose_step);
      w.field("recover_step").number(spec.recover_step);
      break;
    case Family::CacheThrash:
      w.field("start_step").number(spec.start_step);
      w.field("end_step").number(spec.end_step);
      w.field("stride").number(spec.stride);
      break;
    case Family::OverloadStorm:
      w.field("storm_time").exact(spec.storm_time);
      w.field("storm_requests").number(spec.storm_requests);
      break;
  }
  w.close();
  return os.str();
}

ScenarioSpec resolve_scenario(std::string_view arg) {
  HYBRIMOE_REQUIRE(!arg.empty(), "scenario argument must be non-empty");
  if (arg.front() == '{') return parse_scenario_spec(arg);
  if (arg.front() == '@') {
    const std::string path(arg.substr(1));
    std::ifstream in(path);
    HYBRIMOE_REQUIRE(in.good(), "cannot read scenario file '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return parse_scenario_spec(text.str());
  }
  ScenarioSpec spec = scenario_registry().get(arg);
  spec.validate();
  return spec;
}

}  // namespace hybrimoe::scenario
