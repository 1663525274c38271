#include "runtime/serve_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "runtime/session.hpp"

namespace hybrimoe::runtime {
namespace {

ExperimentSpec tiny_spec(std::uint64_t seed = 91) {
  ExperimentSpec spec;
  spec.model = moe::ModelConfig::tiny(4, 8, 2);
  spec.machine = hw::MachineProfile::unit_test_machine();
  spec.cache_ratio = 0.25;
  spec.trace.seed = seed;
  spec.warmup_steps = 8;
  return spec;
}

workload::RequestStreamParams tiny_stream(double rate = 1.0) {
  workload::RequestStreamParams p;
  p.num_requests = 8;
  p.arrival_rate = rate;
  p.prompt_tokens_min = 3;
  p.prompt_tokens_max = 8;
  p.decode_tokens_min = 2;
  p.decode_tokens_max = 5;
  p.seed = 17;
  return p;
}

// -- Equivalence: the harness adapter reproduces the direct engine runs ----

TEST(ServeEngineTest, AdapterReproducesDirectPrefillBitForBit) {
  ExperimentHarness harness(tiny_spec());
  for (const auto fw : kPaperFrameworks) {
    const auto direct =
        harness.build(preset_spec(fw))->run_prefill(harness.prefill_trace(8));
    const auto adapted = harness.run_prefill(preset_spec(fw), 8);
    EXPECT_EQ(adapted.stage, sched::Stage::Prefill);
    EXPECT_EQ(adapted.tokens, direct.tokens);
    EXPECT_DOUBLE_EQ(adapted.total_latency, direct.total_latency);
    ASSERT_EQ(adapted.per_forward.size(), direct.per_forward.size());
    EXPECT_DOUBLE_EQ(adapted.ttft(), direct.ttft());
    EXPECT_EQ(adapted.cache.hits, direct.cache.hits);
    EXPECT_EQ(adapted.cache.misses, direct.cache.misses);
    EXPECT_EQ(adapted.transfers, direct.transfers);
    EXPECT_EQ(adapted.prefetches, direct.prefetches);
    EXPECT_EQ(adapted.maintenance, direct.maintenance);
    EXPECT_DOUBLE_EQ(adapted.cpu_busy, direct.cpu_busy);
    EXPECT_DOUBLE_EQ(adapted.gpu_busy, direct.gpu_busy);
    EXPECT_DOUBLE_EQ(adapted.pcie_busy, direct.pcie_busy);
  }
}

TEST(ServeEngineTest, AdapterReproducesDirectDecodeBitForBit) {
  ExperimentHarness harness(tiny_spec());
  for (const auto fw : kPaperFrameworks) {
    const auto direct =
        harness.build(preset_spec(fw))->run_decode(harness.decode_trace(6));
    const auto adapted = harness.run_decode(preset_spec(fw), 6);
    EXPECT_EQ(adapted.stage, sched::Stage::Decode);
    EXPECT_EQ(adapted.tokens, direct.tokens);
    EXPECT_DOUBLE_EQ(adapted.total_latency, direct.total_latency);
    ASSERT_EQ(adapted.per_forward.size(), direct.per_forward.size());
    for (std::size_t i = 0; i < direct.per_forward.size(); ++i)
      EXPECT_DOUBLE_EQ(adapted.per_forward[i], direct.per_forward[i]);
    EXPECT_DOUBLE_EQ(adapted.tbt_mean(), direct.tbt_mean());
    EXPECT_EQ(adapted.cache.hits, direct.cache.hits);
    EXPECT_EQ(adapted.cache.misses, direct.cache.misses);
    EXPECT_EQ(adapted.transfers, direct.transfers);
    EXPECT_EQ(adapted.prefetches, direct.prefetches);
    EXPECT_EQ(adapted.maintenance, direct.maintenance);
  }
}

// -- Determinism ----------------------------------------------------------

TEST(ServeEngineTest, SameStreamSeedSamePerRequestMetrics) {
  const auto specs = workload::generate_request_stream(tiny_stream());
  ExperimentHarness a(tiny_spec());
  ExperimentHarness b(tiny_spec());
  const auto ma = a.serve(preset_spec(Framework::HybriMoE), specs);
  const auto mb = b.serve(preset_spec(Framework::HybriMoE), specs);
  ASSERT_EQ(ma.requests.size(), mb.requests.size());
  for (std::size_t i = 0; i < ma.requests.size(); ++i) {
    EXPECT_EQ(ma.requests[i].id, mb.requests[i].id);
    EXPECT_DOUBLE_EQ(ma.requests[i].ttft(), mb.requests[i].ttft());
    EXPECT_DOUBLE_EQ(ma.requests[i].e2e(), mb.requests[i].e2e());
    ASSERT_EQ(ma.requests[i].tbt.size(), mb.requests[i].tbt.size());
    for (std::size_t t = 0; t < ma.requests[i].tbt.size(); ++t)
      EXPECT_DOUBLE_EQ(ma.requests[i].tbt[t], mb.requests[i].tbt[t]);
  }
  EXPECT_DOUBLE_EQ(ma.makespan, mb.makespan);
}

TEST(ServeEngineTest, MaterializationIsDeterministicAndMatchesSpecs) {
  const auto specs = workload::generate_request_stream(tiny_stream());
  workload::TraceGenParams params;
  params.seed = 91;
  const auto model = moe::ModelConfig::tiny(4, 8, 2);
  workload::TraceGenerator g1(model, params);
  workload::TraceGenerator g2(model, params);
  const auto r1 = materialize_requests(g1, specs);
  const auto r2 = materialize_requests(g2, specs);
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    ASSERT_EQ(r1[i].prefill_chunks.size(), 1U);
    EXPECT_EQ(r1[i].prefill_chunks[0].prompt_tokens, specs[i].prompt_tokens);
    EXPECT_EQ(r1[i].decode.num_steps(), specs[i].decode_tokens);
    // Identical routing for the same request id across generators.
    const auto& la = r1[i].decode.steps[0].layers[0].loads;
    const auto& lb = r2[i].decode.steps[0].layers[0].loads;
    EXPECT_EQ(la, lb);
  }
}

// -- Continuous-batching invariants ---------------------------------------

TEST(ServeEngineTest, NoRequestStarvesUnderTightBatchCap) {
  // High arrival rate + max_batch 2 forces a deep queue; FIFO admission must
  // still drain every request.
  auto stream = tiny_stream(/*rate=*/50.0);
  stream.num_requests = 12;
  const auto specs = workload::generate_request_stream(stream);
  ExperimentHarness harness(tiny_spec());
  ServeOptions options;
  options.max_batch = 2;
  const auto m = harness.serve(preset_spec(Framework::HybriMoE), specs, options);
  ASSERT_EQ(m.requests.size(), specs.size());
  for (const auto& r : m.requests) {
    EXPECT_GE(r.admit, r.arrival);
    EXPECT_GE(r.first_token, r.admit);
    EXPECT_GE(r.finish, r.first_token);
    EXPECT_EQ(r.generated_tokens, 1 + r.tbt.size());  // first token + decode gaps
  }
}

TEST(ServeEngineTest, AdmissionIsFifoByArrival) {
  auto stream = tiny_stream(/*rate=*/50.0);
  stream.num_requests = 12;
  const auto specs = workload::generate_request_stream(stream);
  ExperimentHarness harness(tiny_spec());
  ServeOptions options;
  options.max_batch = 3;
  const auto m = harness.serve(preset_spec(Framework::KTransformers), specs, options);
  for (std::size_t i = 1; i < m.requests.size(); ++i)
    EXPECT_GE(m.requests[i].admit, m.requests[i - 1].admit);
}

TEST(ServeEngineTest, DecodeOrderPreservedForSimultaneousIdenticalRequests) {
  // Four identical requests arriving together decode in lockstep: earlier
  // admissions never fall behind later ones.
  std::vector<workload::RequestSpec> specs(4);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].id = i;
    specs[i].arrival_time = 0.0;
    specs[i].prompt_tokens = 4;
    specs[i].decode_tokens = 3;
  }
  ExperimentHarness harness(tiny_spec());
  const auto m = harness.serve(preset_spec(Framework::HybriMoE), specs);
  for (std::size_t i = 1; i < m.requests.size(); ++i) {
    EXPECT_LE(m.requests[i - 1].first_token, m.requests[i].first_token);
    EXPECT_LE(m.requests[i - 1].finish, m.requests[i].finish);
  }
}

TEST(ServeEngineTest, ChunkedPrefillCoversThePromptAndDelaysTtft) {
  std::vector<workload::RequestSpec> specs(1);
  specs[0].id = 0;
  specs[0].prompt_tokens = 10;
  specs[0].decode_tokens = 2;
  ExperimentHarness whole(tiny_spec());
  ExperimentHarness chunked(tiny_spec());
  ServeOptions chunk_options;
  chunk_options.max_prefill_chunk = 4;  // 4 + 4 + 2 tokens
  const auto mw = whole.serve(preset_spec(Framework::HybriMoE), specs);
  const auto mc = chunked.serve(preset_spec(Framework::HybriMoE), specs, chunk_options);
  EXPECT_EQ(mw.steps.per_forward.size(), 3U);  // 1 prefill + 2 decode steps
  EXPECT_EQ(mc.steps.per_forward.size(), 5U);  // 3 chunks + 2 decode steps
  EXPECT_EQ(mw.total_generated_tokens(), 3U);
  EXPECT_EQ(mc.total_generated_tokens(), 3U);
}

TEST(ServeEngineTest, ConcurrencyActuallyHappensUnderLoad) {
  // With simultaneous arrivals the serving clock must beat sequential
  // (one-request-at-a-time) execution: steps are shared.
  std::vector<workload::RequestSpec> specs(4);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].id = i;
    specs[i].arrival_time = 0.0;
    specs[i].prompt_tokens = 4;
    specs[i].decode_tokens = 4;
  }
  ExperimentHarness harness(tiny_spec());
  const auto batched = harness.serve(preset_spec(Framework::HybriMoE), specs);
  ServeOptions serial;
  serial.max_batch = 1;
  ExperimentHarness harness2(tiny_spec());
  const auto sequential = harness2.serve(preset_spec(Framework::HybriMoE), specs, serial);
  EXPECT_LT(batched.makespan, sequential.makespan);
  EXPECT_LT(batched.steps.per_forward.size(), sequential.steps.per_forward.size());
}

TEST(ServeEngineTest, IdleGapsAccrueToMakespanNotBusyTime) {
  std::vector<workload::RequestSpec> specs(2);
  specs[0] = {0, 0.0, 4, 2};
  specs[1] = {1, 1e6, 4, 2};  // arrives eons after the first finishes
  ExperimentHarness harness(tiny_spec());
  const auto m = harness.serve(preset_spec(Framework::HybriMoE), specs);
  EXPECT_GE(m.makespan, 1e6);
  EXPECT_LT(m.steps.total_latency, 1e6);
  EXPECT_DOUBLE_EQ(m.requests[1].queueing_delay(), 0.0);
}

// -- Misuse guards --------------------------------------------------------

TEST(ServeEngineTest, RejectsMisuse) {
  ExperimentHarness harness(tiny_spec());
  ServeEngine engine(harness.build(preset_spec(Framework::HybriMoE)));
  EXPECT_THROW((void)engine.run({}), std::invalid_argument);

  std::vector<workload::RequestSpec> specs(1);
  specs[0].prompt_tokens = 4;
  specs[0].decode_tokens = 2;
  ServeOptions bad;
  bad.max_batch = 0;
  EXPECT_THROW((void)harness.serve(preset_spec(Framework::HybriMoE), specs, bad),
               std::invalid_argument);

  // A request whose traces don't match its spec is rejected.
  workload::TraceGenParams params;
  params.seed = 91;
  workload::TraceGenerator gen(moe::ModelConfig::tiny(4, 8, 2), params);
  auto requests = materialize_requests(gen, specs);
  requests[0].spec.decode_tokens = 99;
  ServeEngine engine2(harness.build(preset_spec(Framework::HybriMoE)));
  EXPECT_THROW((void)engine2.run(std::move(requests)), std::invalid_argument);

  // Requests materialised with a coarser chunking than the run options
  // promise are rejected, not silently served whole.
  auto whole = materialize_requests(gen, specs);  // one 4-token chunk
  ServeOptions chunked;
  chunked.max_prefill_chunk = 2;
  ServeEngine engine3(harness.build(preset_spec(Framework::HybriMoE)));
  EXPECT_THROW((void)engine3.run(std::move(whole), chunked), std::invalid_argument);
}

// -- Multi-device cache accounting --------------------------------------

/// Records the transient prefill-buffer hits: while a serve runs, the
/// cumulative step counters hold only those (device caches keep their own).
class TransientHits final : public StepHook {
 public:
  void after_step(const StepInfo&, const StageMetrics& steps) override {
    hits = steps.cache.hits;
  }
  std::size_t hits = 0;
};

/// Serves `requests` on `stack` and checks the reported hits are exactly the
/// device caches' hits plus the transient-buffer hits; returns the latter.
std::size_t expect_hits_cover_every_device(ExperimentHarness& harness,
                                           const StackSpec& stack,
                                           std::vector<Request> requests,
                                           ServeOptions options = {}) {
  TransientHits transient;
  options.hook = &transient;
  ServeEngine engine(harness.build(stack));
  const ServeMetrics m = engine.run(std::move(requests), options);
  std::size_t device_hits = 0;
  std::size_t device_misses = 0;
  for (std::size_t a = 0; a < engine.engine().num_devices(); ++a) {
    device_hits += engine.engine().device_cache(a).stats().hits;
    device_misses += engine.engine().device_cache(a).stats().misses;
  }
  EXPECT_EQ(m.steps.cache.hits, device_hits + transient.hits);
  EXPECT_EQ(m.steps.cache.misses, device_misses);
  return transient.hits;
}

TEST(ServeEngineTest, MultiDeviceDecodeReportsEveryDeviceCache) {
  for (const std::size_t devices : {2u, 4u}) {
    SCOPED_TRACE(devices);
    TopologySpec topology;
    topology.preset = "a6000_xeon10";
    topology.devices = devices;
    ExperimentSpec spec;
    spec.model = moe::ModelConfig::deepseek();
    spec.topology = resolve_topology(topology);
    spec.cache_ratio = std::min(0.25 * static_cast<double>(devices), 0.75);
    ExperimentHarness harness(spec);
    StackSpec stack = preset_spec(Framework::HybriMoE);
    stack.topology = topology;

    std::vector<Request> requests(1);
    requests[0].spec.decode_tokens = 32;
    requests[0].decode = harness.decode_trace(32);
    EXPECT_EQ(expect_hits_cover_every_device(harness, stack, std::move(requests)), 0U);

    // The stage runner reports what the engine's own decode loop reports.
    const auto direct = harness.build(stack)->run_decode(harness.decode_trace(32));
    const auto adapted = harness.run_decode(stack, 32);
    EXPECT_EQ(adapted.cache.hits, direct.cache.hits);
    EXPECT_EQ(adapted.cache.misses, direct.cache.misses);
  }
}

TEST(ServeEngineTest, MultiDeviceServeCountsTransientAndDeviceHits) {
  TopologySpec topology;
  topology.devices = 2;
  ExperimentSpec spec = tiny_spec();
  spec.topology = resolve_topology(topology);
  ExperimentHarness harness(spec);
  StackSpec stack = preset_spec(Framework::HybriMoE);
  stack.topology = topology;
  ServeOptions options;
  options.max_prefill_chunk = 4;
  const auto specs = workload::generate_request_stream(tiny_stream(4.0));
  const std::size_t transient = expect_hits_cover_every_device(
      harness, stack, harness.materialize(specs, options.max_prefill_chunk), options);
  EXPECT_GT(transient, 0U);  // prefetched prefill buffers were consumed
}

}  // namespace
}  // namespace hybrimoe::runtime
