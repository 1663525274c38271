#include "serve_sim/kv.hpp"

#include <sstream>
#include <variant>
#include <vector>

#include "hw/topology.hpp"
#include "moe/model_config.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/json_writer.hpp"
#include "util/registry.hpp"

namespace hybrimoe::serve_sim {

AdmissionMode admission_from_name(std::string_view name) {
  if (name == "queue") return AdmissionMode::Queue;
  if (name == "reject") return AdmissionMode::Reject;
  if (name == "evict") return AdmissionMode::EvictRequeue;
  static const std::vector<std::string> kNames{"evict", "queue", "reject"};
  throw std::invalid_argument(
      util::unknown_name_message("admission mode", name, kNames));
}

void KvSpec::validate() const {
  HYBRIMOE_REQUIRE(budget_mb >= 0.0, "kv 'budget_mb' must be non-negative");
  HYBRIMOE_REQUIRE(bytes_per_token >= 0.0,
                   "kv 'bytes_per_token' must be non-negative");
}

double model_kv_bytes_per_token(const moe::ModelConfig& model) {
  // K and V, one d_model row each per layer, fp16.
  return 2.0 * static_cast<double>(model.num_layers) *
         static_cast<double>(model.routed.d_model) * 2.0;
}

double derived_kv_budget_mb(const hw::Topology& topology) {
  topology.validate();
  double share_total = 0.0;
  for (const auto& accel : topology.accelerators) share_total += accel.cache_share;
  const double mean_share =
      share_total / static_cast<double>(topology.num_accelerators());
  double budget = 0.0;
  for (const auto& accel : topology.accelerators)
    budget += kKvMbPerAccelerator * (accel.cache_share / mean_share);
  return budget;
}

KvSpec kv_from_json(const util::json::Value& value) {
  using util::json::as_number;
  using util::json::as_string;
  if (!value.is_object())
    util::json::error_at(value, "'kv' must be an object");
  static const std::vector<std::string> kKeys{"admission", "budget_mb",
                                             "bytes_per_token"};
  KvSpec spec;
  for (const auto& [key, v] : std::get<util::json::Object>(value.value)) {
    if (key == "budget_mb") {
      spec.budget_mb = as_number(v, key);
    } else if (key == "bytes_per_token") {
      spec.bytes_per_token = as_number(v, key);
    } else if (key == "admission") {
      try {
        spec.mode = admission_from_name(as_string(v, key));
      } catch (const std::invalid_argument& e) {
        util::json::error_at(v, e.what());
      }
    } else {
      util::json::error_at(v, util::unknown_name_message("kv option", key, kKeys));
    }
  }
  try {
    spec.validate();
  } catch (const std::invalid_argument& e) {
    util::json::error_at(value, e.what());
  }
  return spec;
}

KvSpec parse_kv_spec(std::string_view text) {
  return kv_from_json(util::json::Parser(text, "kv spec").parse_document());
}

std::string to_json(const KvSpec& spec) {
  std::ostringstream os;
  util::JsonWriter::Inline w(os);
  w.field("budget_mb").exact(spec.budget_mb);
  if (spec.bytes_per_token > 0.0) w.field("bytes_per_token").exact(spec.bytes_per_token);
  w.field("admission").string(to_string(spec.mode));
  w.close();
  return os.str();
}

KvAccountant::KvAccountant(const KvSpec& spec) : budget_(spec.budget_bytes()) {
  spec.validate();
  HYBRIMOE_REQUIRE(spec.enabled(),
                   "a KV accountant needs an enabled spec (budget_mb > 0)");
  HYBRIMOE_REQUIRE(spec.bytes_per_token > 0.0,
                   "KV accounting needs a resolved 'bytes_per_token' (derive "
                   "it from the model with model_kv_bytes_per_token)");
}

void KvAccountant::reserve(double bytes) {
  HYBRIMOE_ASSERT(bytes >= 0.0, "negative KV reservation");
  HYBRIMOE_ASSERT(fits(bytes), "KV reservation exceeds the budget");
  used_ += bytes;
  if (used_ > peak_) peak_ = used_;
}

void KvAccountant::release(double bytes) {
  HYBRIMOE_ASSERT(bytes >= 0.0, "negative KV release");
  HYBRIMOE_ASSERT(bytes <= used_ + 1e-9, "releasing more KV than reserved");
  used_ -= bytes;
  if (used_ < 0.0) used_ = 0.0;
}

}  // namespace hybrimoe::serve_sim
