#pragma once

/// \file trace_source.hpp
/// Where a simulated request's routing traces come from. SimCore calls
/// materialize_request when it admits a request and frees the traces when
/// the request finishes; runtime::materialize_requests builds a whole
/// stream's traces up front for callers that need them outside a serve.

#include <cstddef>

#include "runtime/request.hpp"
#include "workload/generator.hpp"

namespace hybrimoe::serve_sim {

/// \brief Materialise one request's routing traces in place: reset the
/// generator to the request's derived seed, generate its prompt chunks
/// (split at `max_prefill_chunk` tokens; 0 = whole prompt) and its decode
/// steps as one continuous latent process. Deterministic per (generator
/// seed, request id) and independent of every other request — the fairness
/// and laziness guarantee of the serving layer.
void materialize_request(workload::TraceGenerator& generator,
                         runtime::Request& request,
                         std::size_t max_prefill_chunk = 0);

}  // namespace hybrimoe::serve_sim
