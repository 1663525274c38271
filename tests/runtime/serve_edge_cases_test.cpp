#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "runtime/serve_engine.hpp"
#include "runtime/session.hpp"

namespace hybrimoe::runtime {
namespace {

ExperimentSpec tiny_spec(std::uint64_t seed = 91) {
  ExperimentSpec spec;
  spec.model = moe::ModelConfig::tiny(4, 8, 2);
  spec.machine = hw::Topology::unit_test();
  spec.cache_ratio = 0.25;
  spec.trace.seed = seed;
  spec.warmup_steps = 8;
  return spec;
}

workload::RequestSpec make_request(std::uint64_t id, double arrival,
                                   std::size_t prompt, std::size_t decode) {
  workload::RequestSpec r;
  r.id = id;
  r.arrival_time = arrival;
  r.prompt_tokens = prompt;
  r.decode_tokens = decode;
  return r;
}

// -- Arrival exactly at a step boundary ------------------------------------

TEST(ServeEdgeCasesTest, ArrivalExactlyAtAStepBoundaryIsAdmittedThatInstant) {
  // Surface-at-boundary semantics: an arrival_time equal to the serving
  // clock after a step (<=, not <) joins the very next batch with zero
  // queueing delay. The boundary instant comes from a probe run, so the
  // equality is exact — same floats, not an epsilon.
  const auto first = make_request(0, 0.0, 4, 6);
  ExperimentHarness probe(tiny_spec());
  const auto solo =
      probe.serve_stream(preset_spec(Framework::HybriMoE), std::vector{first});
  const double boundary = solo.requests[0].first_token;

  const std::vector<workload::RequestSpec> specs{
      first, make_request(1, boundary, 4, 3)};
  ExperimentHarness harness(tiny_spec());
  const auto m = harness.serve_stream(preset_spec(Framework::HybriMoE), specs);
  EXPECT_EQ(m.requests[1].arrival, boundary);
  EXPECT_EQ(m.requests[1].admit, boundary);
  EXPECT_DOUBLE_EQ(m.requests[1].queueing_delay(), 0.0);
  EXPECT_EQ(m.finished_count(), 2U);
}

// -- Every request exceeds the context budget ------------------------------

TEST(ServeEdgeCasesTest, AllRequestsOverContextBudgetRejectsWithoutStepping) {
  const std::vector<workload::RequestSpec> specs{
      make_request(0, 0.0, 32, 8),
      make_request(1, 0.5, 16, 16),
      make_request(2, 1.0, 64, 1),
  };
  ServeOptions options;
  options.max_context_tokens = 8;  // every prompt + decode budget is larger
  ExperimentHarness harness(tiny_spec());
  const auto m = harness.serve_stream(preset_spec(Framework::HybriMoE), specs, options);
  EXPECT_EQ(m.rejected_count(), specs.size());
  EXPECT_EQ(m.finished_count(), 0U);
  EXPECT_TRUE(m.steps.per_forward.empty());  // no step ever composed
  EXPECT_EQ(m.total_generated_tokens(), 0U);
  EXPECT_DOUBLE_EQ(m.throughput(), 0.0);
  // Latency distributions over an all-rejected run are guarded, not NaN.
  EXPECT_THROW((void)m.ttft_tails(), std::invalid_argument);
  EXPECT_THROW((void)m.tbt_tails(), std::invalid_argument);
}

TEST(ServeEdgeCasesTest, ContextBudgetRejectsOnlyTheOversizedRequests) {
  const std::vector<workload::RequestSpec> specs{
      make_request(0, 0.0, 4, 2),    // 6 tokens: fits
      make_request(1, 0.0, 32, 8),   // 40 tokens: rejected
      make_request(2, 0.0, 6, 2),    // 8 tokens: fits exactly (budget is <=)
  };
  ServeOptions options;
  options.max_context_tokens = 8;
  ExperimentHarness harness(tiny_spec());
  const auto m = harness.serve_stream(preset_spec(Framework::HybriMoE), specs, options);
  EXPECT_EQ(m.rejected_count(), 1U);
  EXPECT_TRUE(m.requests[1].rejected);
  EXPECT_EQ(m.finished_count(), 2U);
}

// -- Arrival-timestamp tie-break -------------------------------------------

TEST(ServeEdgeCasesTest, SimultaneousArrivalsServeInIdOrderRegardlessOfInput) {
  // The documented tie-break (request.hpp): equal arrival timestamps order
  // by ascending id. Feeding the same requests in three input orders must
  // produce identical metrics — the sort is the contract, not the caller's
  // array order.
  std::vector<workload::RequestSpec> specs{
      make_request(4, 0.0, 4, 2), make_request(1, 0.0, 5, 3),
      make_request(3, 0.0, 6, 2), make_request(2, 0.0, 4, 4)};

  const auto serve_order = [&](std::vector<workload::RequestSpec> order) {
    ExperimentHarness harness(tiny_spec());
    return harness.serve_stream(preset_spec(Framework::HybriMoE), order);
  };
  const auto a = serve_order(specs);
  std::reverse(specs.begin(), specs.end());
  const auto b = serve_order(specs);
  std::swap(specs[0], specs[2]);
  const auto c = serve_order(specs);

  // Metrics come back in (arrival, id) order: ids ascending here.
  for (std::size_t i = 1; i < a.requests.size(); ++i)
    EXPECT_LT(a.requests[i - 1].id, a.requests[i].id);
  for (const auto* m : {&b, &c}) {
    ASSERT_EQ(m->requests.size(), a.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
      EXPECT_EQ(m->requests[i].id, a.requests[i].id);
      EXPECT_EQ(m->requests[i].admit, a.requests[i].admit);
      EXPECT_EQ(m->requests[i].first_token, a.requests[i].first_token);
      EXPECT_EQ(m->requests[i].finish, a.requests[i].finish);
      EXPECT_EQ(m->requests[i].tbt, a.requests[i].tbt);
    }
    EXPECT_EQ(m->makespan, a.makespan);
  }
}

// -- Request lifecycle bookkeeping -----------------------------------------

TEST(ServeEdgeCasesTest, PreemptionCountersSurviveIntoMetrics) {
  Request r;
  r.state = RequestState::Prefill;
  r.preempt();
  r.resume();
  r.preempt();
  EXPECT_EQ(r.preemptions, 2U);
  EXPECT_EQ(r.state, RequestState::Preempted);
  // resume() clears the consecutive-defer streak, not the lifetime count.
  r.resume();
  EXPECT_EQ(r.preempt_streak, 0U);
  EXPECT_EQ(r.preemptions, 2U);
}

TEST(ServeEdgeCasesTest, StateNamesCoverTheLifecycle) {
  EXPECT_STREQ(to_string(RequestState::Queued), "queued");
  EXPECT_STREQ(to_string(RequestState::Prefill), "prefill");
  EXPECT_STREQ(to_string(RequestState::Preempted), "preempted");
  EXPECT_STREQ(to_string(RequestState::Decode), "decode");
  EXPECT_STREQ(to_string(RequestState::Finished), "finished");
  EXPECT_STREQ(to_string(RequestState::Rejected), "rejected");
}

}  // namespace
}  // namespace hybrimoe::runtime
