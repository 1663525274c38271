#include "runtime/serve_engine.hpp"

#include "serve_sim/trace_source.hpp"
#include "util/assert.hpp"

namespace hybrimoe::runtime {

void TierPolicy::validate() const {
  HYBRIMOE_REQUIRE(tbt_slo >= 0.0, "tier 'tbt_slo' must be non-negative");
  HYBRIMOE_REQUIRE(ttft_deadline >= 0.0, "tier 'ttft_deadline' must be non-negative");
  HYBRIMOE_REQUIRE(!queue_capacity.has_value() || *queue_capacity >= 1,
                   "a zero-capacity tier queue admits nothing — use a "
                   "capacity >= 1 or leave the tier unbounded");
}

void ServeOptions::validate() const {
  HYBRIMOE_REQUIRE(max_batch > 0, "max_batch must be positive");
  HYBRIMOE_REQUIRE(max_consecutive_preemptions >= 1,
                   "max_consecutive_preemptions must be >= 1");
  for (const TierPolicy& tier : tiers) tier.validate();
  kv.validate();
  HYBRIMOE_REQUIRE(!kv.enabled() || kv.bytes_per_token > 0.0,
                   "KV accounting needs a resolved 'bytes_per_token' (derive "
                   "it from the model with serve_sim::model_kv_bytes_per_token)");
}

std::vector<Request> materialize_requests(workload::TraceGenerator& generator,
                                          std::span<const workload::RequestSpec> specs,
                                          std::size_t max_prefill_chunk) {
  std::vector<Request> requests;
  requests.reserve(specs.size());
  for (const auto& spec : specs) {
    Request request;
    request.spec = spec;
    serve_sim::materialize_request(generator, request, max_prefill_chunk);
    requests.push_back(std::move(request));
  }
  return requests;
}

}  // namespace hybrimoe::runtime
