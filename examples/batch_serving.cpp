/// \file batch_serving.cpp
/// Extension beyond the paper's single-stream decode: request-level serving
/// with continuous batching. A Poisson stream of mixed-size requests flows
/// through the admission queue; each step composes at most one prefill chunk
/// plus every active decode, so rising load raises per-expert loads (toward
/// the prefill regime) and shifts the hybrid scheduler from "CPU computes
/// misses" toward "stream misses to the GPU" automatically.
///
/// The warmup statistics, engines and per-request traces all come from one
/// ExperimentHarness, so both frameworks serve byte-identical traffic.

#include <iostream>

#include "runtime/session.hpp"
#include "util/table.hpp"

int main() {
  using namespace hybrimoe;

  runtime::ExperimentSpec spec;
  spec.model = moe::ModelConfig::deepseek();
  spec.cache_ratio = 0.25;
  spec.trace.seed = 4242;
  runtime::ExperimentHarness harness(spec);

  workload::RequestStreamParams stream;
  stream.num_requests = 12;
  stream.prompt_tokens_min = 16;
  stream.prompt_tokens_max = 48;
  stream.decode_tokens_min = 6;
  stream.decode_tokens_max = 12;
  stream.seed = 4242;

  std::cout << "Continuous-batching serving: " << spec.model.name << " @ "
            << spec.cache_ratio * 100 << "% cache, " << stream.num_requests
            << " Poisson requests per rate\n\n";

  util::TextTable table("serving latency by arrival rate (KTransformers vs HybriMoE)");
  table.set_headers({"req/s", "KT p95 TBT", "HM p95 TBT", "TBT speedup",
                     "HM p95 TTFT", "HM tok/s", "HM transfers/step"});

  for (const double rate : {0.25, 0.5, 1.0, 2.0}) {
    stream.arrival_rate = rate;
    const auto specs = workload::generate_request_stream(stream);
    // Traces are framework-independent: materialise once, serve copies.
    const auto requests = harness.materialize(specs);

    const auto kt =
        harness.serve(runtime::preset_spec(runtime::Framework::KTransformers), requests);
    const auto hm =
        harness.serve(runtime::preset_spec(runtime::Framework::HybriMoE), requests);

    const double kt_tbt = kt.tbt_tails().p95;
    const double hm_tbt = hm.tbt_tails().p95;
    const auto steps = static_cast<double>(hm.steps.per_forward.size());
    table.begin_row()
        .add_cell(util::format_double(rate, 2))
        .add_cell(util::format_seconds(kt_tbt))
        .add_cell(util::format_seconds(hm_tbt))
        .add_cell(util::format_speedup(kt_tbt / hm_tbt))
        .add_cell(util::format_seconds(hm.ttft_tails().p95))
        .add_cell(util::format_double(hm.throughput(), 1))
        .add_cell(util::format_double(static_cast<double>(hm.steps.transfers) / steps, 1));
  }
  table.print(std::cout);

  std::cout << "\nAs the arrival rate grows, batches deepen: per-expert loads rise\n"
               "and HybriMoE starts streaming heavy misses to the GPU\n"
               "(transfers/step climbs) — the same machinery that wins prefill.\n";
  return 0;
}
