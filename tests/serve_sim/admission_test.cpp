#include <gtest/gtest.h>

#include <vector>

#include "runtime/serve_engine.hpp"
#include "runtime/session.hpp"

namespace hybrimoe::serve_sim {
namespace {

using runtime::ExperimentHarness;
using runtime::ExperimentSpec;
using runtime::Framework;
using runtime::ServeMetrics;
using runtime::ServeOptions;

/// Round per-token bytes so footprints are easy to reason about in tests:
/// footprint = (prompt + decode) * 1000 bytes, budget_mb units of 1e6.
constexpr double kBytesPerToken = 1000.0;

ExperimentSpec tiny_spec(std::uint64_t seed = 91) {
  ExperimentSpec spec;
  spec.model = moe::ModelConfig::tiny(4, 8, 2);
  spec.machine = hw::Topology::unit_test();
  spec.cache_ratio = 0.25;
  spec.trace.seed = seed;
  spec.warmup_steps = 8;
  return spec;
}

/// The stack every admission test serves.
runtime::StackSpec hybrimoe_stack() { return runtime::preset_spec(Framework::HybriMoE); }

ServeOptions kv_options(double budget_mb, AdmissionMode mode) {
  ServeOptions options;
  options.kv.budget_mb = budget_mb;
  options.kv.bytes_per_token = kBytesPerToken;
  options.kv.mode = mode;
  return options;
}

workload::RequestSpec make_request(std::uint64_t id, double arrival,
                                   std::size_t prompt, std::size_t decode,
                                   workload::Priority priority =
                                       workload::Priority::Standard) {
  workload::RequestSpec spec;
  spec.id = id;
  spec.arrival_time = arrival;
  spec.prompt_tokens = prompt;
  spec.decode_tokens = decode;
  spec.priority = priority;
  return spec;
}

workload::RequestStreamParams tiny_stream(double rate = 4.0) {
  workload::RequestStreamParams p;
  p.num_requests = 16;
  p.arrival_rate = rate;
  p.prompt_tokens_min = 3;
  p.prompt_tokens_max = 8;
  p.decode_tokens_min = 2;
  p.decode_tokens_max = 5;
  p.seed = 17;
  return p;
}

// -- Impossible fits ------------------------------------------------------

TEST(KvAdmissionTest, NearZeroBudgetRejectsEveryRequest) {
  // One byte of budget: every footprint is impossible, so every request is
  // shed at arrival regardless of the admission mode.
  const auto specs = workload::generate_request_stream(tiny_stream());
  for (const auto mode : {AdmissionMode::Queue, AdmissionMode::Reject,
                          AdmissionMode::EvictRequeue}) {
    ExperimentHarness harness(tiny_spec());
    const auto metrics =
        harness.serve_stream(hybrimoe_stack(), specs, kv_options(1e-6, mode));
    EXPECT_EQ(metrics.finished_count(), 0U);
    EXPECT_EQ(metrics.rejected_count(), specs.size());
    EXPECT_EQ(metrics.kv.rejected, specs.size());
    EXPECT_EQ(metrics.kv.evictions, 0U);
    EXPECT_DOUBLE_EQ(metrics.kv.peak_bytes, 0.0);
    EXPECT_EQ(metrics.total_generated_tokens(), 0U);
  }
}

TEST(KvAdmissionTest, ExactFitIsAdmittedOneTokenOverIsNot) {
  // footprint = (4 + 4) * 1000 = 8000 bytes.
  const std::vector<workload::RequestSpec> specs{make_request(0, 0.0, 4, 4)};
  {
    ExperimentHarness harness(tiny_spec());
    const auto metrics = harness.serve_stream(
        hybrimoe_stack(), specs, kv_options(0.008, AdmissionMode::Queue));
    EXPECT_EQ(metrics.finished_count(), 1U);
    EXPECT_DOUBLE_EQ(metrics.kv.peak_bytes, 8000.0);
    EXPECT_DOUBLE_EQ(metrics.kv.budget_bytes, 8000.0);
  }
  {
    ExperimentHarness harness(tiny_spec());
    const auto metrics = harness.serve_stream(
        hybrimoe_stack(), specs, kv_options(0.007, AdmissionMode::Queue));
    EXPECT_EQ(metrics.finished_count(), 0U);
    EXPECT_EQ(metrics.kv.rejected, 1U);
  }
}

// -- Queue mode -----------------------------------------------------------

TEST(KvAdmissionTest, QueueModeFinishesEverythingWithinBudget) {
  const auto specs = workload::generate_request_stream(tiny_stream(50.0));
  ExperimentHarness harness(tiny_spec());
  // Budget for one max-size request (13 tokens): admission serialises but
  // nothing is lost.
  const auto metrics = harness.serve_stream(hybrimoe_stack(), specs,
                                            kv_options(0.013, AdmissionMode::Queue));
  EXPECT_EQ(metrics.finished_count(), specs.size());
  EXPECT_EQ(metrics.rejected_count(), 0U);
  EXPECT_EQ(metrics.kv.rejected, 0U);
  EXPECT_LE(metrics.kv.peak_bytes, metrics.kv.budget_bytes);
  EXPECT_GT(metrics.kv.peak_bytes, 0.0);
}

TEST(KvAdmissionTest, DisabledAccountingIsBitIdenticalToNoKv) {
  const auto specs = workload::generate_request_stream(tiny_stream());
  ExperimentHarness a(tiny_spec());
  ExperimentHarness b(tiny_spec());
  const auto plain = a.serve_stream(hybrimoe_stack(), specs);
  ServeOptions disabled;  // budget 0 = accounting off
  const auto gated = b.serve_stream(hybrimoe_stack(), specs, disabled);
  ASSERT_EQ(plain.requests.size(), gated.requests.size());
  EXPECT_EQ(plain.makespan, gated.makespan);
  for (std::size_t i = 0; i < plain.requests.size(); ++i) {
    EXPECT_EQ(plain.requests[i].finish, gated.requests[i].finish);
    EXPECT_EQ(plain.requests[i].tbt, gated.requests[i].tbt);
  }
  EXPECT_DOUBLE_EQ(gated.kv.budget_bytes, 0.0);
}

// -- Reject mode ----------------------------------------------------------

TEST(KvAdmissionTest, RejectModeShedsExactlyWhatCannotFit) {
  const auto specs = workload::generate_request_stream(tiny_stream(200.0));
  ExperimentHarness harness(tiny_spec());
  const auto metrics = harness.serve_stream(hybrimoe_stack(), specs,
                                            kv_options(0.020, AdmissionMode::Reject));
  EXPECT_GT(metrics.rejected_count(), 0U);
  EXPECT_GT(metrics.finished_count(), 0U);
  // KV is the only active admission-control policy, so its reject counter
  // accounts for every shed request.
  EXPECT_EQ(metrics.kv.rejected, metrics.rejected_count());
  EXPECT_EQ(metrics.kv.evictions, 0U);
}

// -- Evict-and-requeue mode -----------------------------------------------

ServeOptions evict_options() {
  // Budget fits two max-size requests; priority admission on so the tier
  // ladder drives both admission and eviction.
  ServeOptions options = kv_options(0.026, AdmissionMode::EvictRequeue);
  options.priority_admission = true;
  return options;
}

TEST(KvAdmissionTest, EvictRequeueIsDeterministicAndConservesTokens) {
  auto params = tiny_stream(100.0);
  params.vip_fraction = 0.3;
  params.best_effort_fraction = 0.4;
  const auto specs = workload::generate_request_stream(params);
  ExperimentHarness a(tiny_spec());
  ExperimentHarness b(tiny_spec());
  const auto ma = a.serve_stream(hybrimoe_stack(), specs, evict_options());
  const auto mb = b.serve_stream(hybrimoe_stack(), specs, evict_options());

  // Evict mode never sheds a feasible request: it blocks when it cannot
  // evict. Token conservation: every finished request re-emitted its full
  // budget even after losing progress to an eviction.
  EXPECT_EQ(ma.finished_count(), specs.size());
  for (std::size_t i = 0; i < ma.requests.size(); ++i) {
    const auto& r = ma.requests[i];
    const auto& spec = specs[r.id];
    EXPECT_EQ(r.generated_tokens,
              (spec.prompt_tokens > 0 ? 1 : 0) + spec.decode_tokens);
  }
  EXPECT_EQ(ma.eviction_count(), ma.kv.evictions);

  // Bit-for-bit reproducible across independent harnesses.
  ASSERT_EQ(ma.requests.size(), mb.requests.size());
  EXPECT_EQ(ma.makespan, mb.makespan);
  EXPECT_EQ(ma.kv.evictions, mb.kv.evictions);
  EXPECT_EQ(ma.kv.peak_bytes, mb.kv.peak_bytes);
  for (std::size_t i = 0; i < ma.requests.size(); ++i) {
    EXPECT_EQ(ma.requests[i].finish, mb.requests[i].finish);
    EXPECT_EQ(ma.requests[i].evictions, mb.requests[i].evictions);
    EXPECT_EQ(ma.requests[i].tbt, mb.requests[i].tbt);
  }
}

TEST(KvAdmissionTest, EvictionTargetsStrictlyLowerTiersNewestFirst) {
  // Three requests of one shape (footprint 68000 each), budget 137000: the
  // best-effort and standard requests are admitted at t=0 and decode for a
  // long time; when the VIP arrives (any instant after the t=0 admission)
  // it does not fit, and the only valid victim is the best-effort request —
  // never the same-or-higher standard one.
  const std::vector<workload::RequestSpec> specs{
      make_request(0, 0.0, 4, 64, workload::Priority::BestEffort),
      make_request(1, 0.0, 4, 64, workload::Priority::Standard),
      make_request(2, 1e-6, 4, 64, workload::Priority::Vip),
  };
  ExperimentHarness harness(tiny_spec());
  ServeOptions options = kv_options(0.137, AdmissionMode::EvictRequeue);
  options.priority_admission = true;
  const auto metrics = harness.serve_stream(hybrimoe_stack(), specs, options);
  EXPECT_EQ(metrics.finished_count(), 3U);
  EXPECT_GE(metrics.requests[0].evictions, 1U);  // best-effort paid
  EXPECT_EQ(metrics.requests[1].evictions, 0U);  // standard untouched
  EXPECT_EQ(metrics.requests[2].evictions, 0U);  // vip never evicted
  EXPECT_EQ(metrics.kv.evictions, metrics.eviction_count());
}

TEST(KvAdmissionTest, EvictFallsBackToBlockingWhenNoLowerTierExists) {
  // All standard: nothing is strictly lower, so evict mode degrades to
  // queue-mode blocking — everything still finishes, nothing is evicted.
  const std::vector<workload::RequestSpec> specs{
      make_request(0, 0.0, 4, 8),
      make_request(1, 0.0, 4, 8),
      make_request(2, 0.0, 4, 8),
  };
  ExperimentHarness harness(tiny_spec());
  const auto metrics = harness.serve_stream(
      hybrimoe_stack(), specs, kv_options(0.025, AdmissionMode::EvictRequeue));
  EXPECT_EQ(metrics.finished_count(), 3U);
  EXPECT_EQ(metrics.kv.evictions, 0U);
  EXPECT_EQ(metrics.kv.rejected, 0U);
}

// -- Option plumbing ------------------------------------------------------

TEST(KvAdmissionTest, EnabledBudgetRequiresResolvedBytesPerToken) {
  const std::vector<workload::RequestSpec> specs{make_request(0, 0.0, 4, 4)};
  ExperimentHarness harness(tiny_spec());
  ServeOptions options;
  options.kv.budget_mb = 1.0;  // bytes_per_token left unresolved
  EXPECT_THROW((void)harness.serve_stream(hybrimoe_stack(), specs, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace hybrimoe::serve_sim
