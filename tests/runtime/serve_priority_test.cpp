#include <gtest/gtest.h>

#include <stdexcept>

#include "runtime/serve_engine.hpp"
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

workload::RequestSpec make_request(std::uint64_t id, double arrival,
                                   std::size_t prompt, std::size_t decode,
                                   workload::Priority priority) {
  workload::RequestSpec r;
  r.id = id;
  r.arrival_time = arrival;
  r.prompt_tokens = prompt;
  r.decode_tokens = decode;
  r.priority = priority;
  return r;
}

const RequestMetrics& metrics_of(const ServeMetrics& m, std::uint64_t id) {
  for (const auto& r : m.requests)
    if (r.id == id) return r;
  throw std::logic_error("request id not in metrics");
}

// -- Priority admission ----------------------------------------------------

TEST(ServePriorityTest, VipJumpsTheAdmissionQueue) {
  // Three simultaneous arrivals, one slot: FIFO admits by id, priority
  // admission admits VIP > standard > best-effort regardless of id order.
  const std::vector<workload::RequestSpec> specs{
      make_request(0, 0.0, 6, 2, workload::Priority::BestEffort),
      make_request(1, 0.0, 6, 2, workload::Priority::Standard),
      make_request(2, 0.0, 6, 2, workload::Priority::Vip),
  };
  ServeOptions options;
  options.max_batch = 1;

  ExperimentHarness fifo_harness(tiny_spec());
  const auto fifo = fifo_harness.serve(preset_spec(Framework::HybriMoE), specs, options);
  EXPECT_LT(metrics_of(fifo, 0).first_token, metrics_of(fifo, 2).first_token);

  options.priority_admission = true;
  ExperimentHarness tiered_harness(tiny_spec());
  const auto tiered =
      tiered_harness.serve(preset_spec(Framework::HybriMoE), specs, options);
  EXPECT_LT(metrics_of(tiered, 2).first_token, metrics_of(tiered, 1).first_token);
  EXPECT_LT(metrics_of(tiered, 1).first_token, metrics_of(tiered, 0).first_token);
  // Every request still finishes — lower tiers are delayed, never dropped.
  EXPECT_EQ(tiered.finished_count(), specs.size());
}

TEST(ServePriorityTest, FifoTieBreaksEqualPrioritiesWithinPriorityAdmission) {
  // Same-tier requests keep (arrival, id) order even under priority
  // admission.
  const std::vector<workload::RequestSpec> specs{
      make_request(5, 0.0, 4, 2, workload::Priority::Standard),
      make_request(3, 0.0, 4, 2, workload::Priority::Standard),
      make_request(9, 0.0, 4, 2, workload::Priority::Standard),
  };
  ServeOptions options;
  options.max_batch = 1;
  options.priority_admission = true;
  ExperimentHarness harness(tiny_spec());
  const auto m = harness.serve(preset_spec(Framework::HybriMoE), specs, options);
  EXPECT_LT(metrics_of(m, 3).admit, metrics_of(m, 5).admit);
  EXPECT_LT(metrics_of(m, 5).admit, metrics_of(m, 9).admit);
}

// -- Bit-identical single-tier equivalence ---------------------------------

TEST(ServePriorityTest, SingleTierStreamIsBitIdenticalUnderTieredOptions) {
  // An all-standard stream must serve identically whether the tier machinery
  // is off (the pre-tier engine) or fully armed: priority admission cannot
  // reorder one tier and preemption never fires without a higher tier.
  workload::RequestStreamParams p;
  p.num_requests = 10;
  p.arrival_rate = 200.0;
  p.prompt_tokens_min = 4;
  p.prompt_tokens_max = 10;
  p.decode_tokens_min = 2;
  p.decode_tokens_max = 5;
  p.seed = 7;
  const auto specs = workload::generate_request_stream(p);

  ServeOptions plain;
  plain.max_prefill_chunk = 4;
  ServeOptions tiered = plain;
  tiered.priority_admission = true;
  tiered.preemption = true;
  tiered.tiers[workload::priority_index(workload::Priority::Vip)].tbt_slo = 1e-6;

  ExperimentHarness a(tiny_spec());
  ExperimentHarness b(tiny_spec());
  const auto ma = a.serve(preset_spec(Framework::HybriMoE), specs, plain);
  const auto mb = b.serve(preset_spec(Framework::HybriMoE), specs, tiered);
  ASSERT_EQ(ma.requests.size(), mb.requests.size());
  for (std::size_t i = 0; i < ma.requests.size(); ++i) {
    EXPECT_EQ(ma.requests[i].id, mb.requests[i].id);
    EXPECT_EQ(ma.requests[i].admit, mb.requests[i].admit);
    EXPECT_EQ(ma.requests[i].first_token, mb.requests[i].first_token);
    EXPECT_EQ(ma.requests[i].finish, mb.requests[i].finish);
    EXPECT_EQ(ma.requests[i].tbt, mb.requests[i].tbt);
    EXPECT_EQ(mb.requests[i].preemptions, 0U);
  }
  EXPECT_EQ(ma.makespan, mb.makespan);
  EXPECT_EQ(ma.steps.per_forward, mb.steps.per_forward);
}

// -- Preemption ------------------------------------------------------------

TEST(ServePriorityTest, TightVipSloPreemptsLowerTierPrefill) {
  // A VIP decode is in flight when a long best-effort prompt arrives. With a
  // TBT SLO far below the chunk latency, every chunk would breach it, so the
  // prefill defers until the no-starvation valve forces it through.
  //
  // Preemption arms only after both step regimes have been observed
  // (est_prefill from a chunked step, est_decode from a decode-only step),
  // so the best-effort arrival is placed a few decode gaps after the VIP's
  // first token — measured from a solo probe run, not hard-coded clock
  // values.
  const workload::RequestSpec vip =
      make_request(0, 0.0, 4, 40, workload::Priority::Vip);
  ExperimentHarness probe_harness(tiny_spec());
  const auto probe =
      probe_harness.serve(preset_spec(Framework::HybriMoE), std::vector{vip});
  const double arrival =
      metrics_of(probe, 0).first_token + 2.5 * metrics_of(probe, 0).tbt[0];

  const std::vector<workload::RequestSpec> specs{
      vip, make_request(1, arrival, 64, 2, workload::Priority::BestEffort)};
  ServeOptions options;
  options.max_prefill_chunk = 4;
  options.preemption = true;
  options.tiers[workload::priority_index(workload::Priority::Vip)].tbt_slo = 1e-9;

  ExperimentHarness harness(tiny_spec());
  const auto m = harness.serve(preset_spec(Framework::HybriMoE), specs, options);
  EXPECT_GT(metrics_of(m, 1).preemptions, 0U);
  EXPECT_EQ(metrics_of(m, 0).preemptions, 0U);  // VIP itself never preempted
  // The no-starvation valve: the best-effort request still finished.
  EXPECT_EQ(m.finished_count(), specs.size());
  EXPECT_EQ(metrics_of(m, 1).generated_tokens, 3U);
}

TEST(ServePriorityTest, PreemptionNeverFiresWithoutAnSloOrWithoutHigherTiers) {
  const std::vector<workload::RequestSpec> specs{
      make_request(0, 0.0, 4, 40, workload::Priority::Vip),
      make_request(1, 0.001, 64, 2, workload::Priority::BestEffort),
  };
  ServeOptions options;
  options.max_prefill_chunk = 4;
  options.preemption = true;  // armed, but no tier has an SLO
  ExperimentHarness harness(tiny_spec());
  const auto no_slo = harness.serve(preset_spec(Framework::HybriMoE), specs, options);
  for (const auto& r : no_slo.requests) EXPECT_EQ(r.preemptions, 0U);

  // The VIP is the *prefill* and the best-effort the decode: a lower-tier
  // decode never preempts a higher-tier prefill.
  const std::vector<workload::RequestSpec> inverted{
      make_request(0, 0.0, 4, 40, workload::Priority::BestEffort),
      make_request(1, 0.001, 64, 2, workload::Priority::Vip),
  };
  ServeOptions tight = options;
  tight.tiers[workload::priority_index(workload::Priority::BestEffort)].tbt_slo =
      1e-9;
  ExperimentHarness harness2(tiny_spec());
  const auto m = harness2.serve(preset_spec(Framework::HybriMoE), inverted, tight);
  for (const auto& r : m.requests) EXPECT_EQ(r.preemptions, 0U);
}

// -- Admission control: deadlines, capacity, rejection accounting ----------

TEST(ServePriorityTest, TtftDeadlineRejectsRequestsThatWaitedTooLong) {
  // One slot, a slow head-of-line request, and a tier deadline shorter than
  // its service time: the queued tail is rejected, not served late.
  std::vector<workload::RequestSpec> specs{
      make_request(0, 0.0, 32, 8, workload::Priority::Standard)};
  for (std::uint64_t id = 1; id <= 4; ++id)
    specs.push_back(make_request(id, 0.0, 4, 2, workload::Priority::Standard));
  ServeOptions options;
  options.max_batch = 1;
  options.tiers[workload::priority_index(workload::Priority::Standard)]
      .ttft_deadline = 1e-9;
  ExperimentHarness harness(tiny_spec());
  const auto m = harness.serve(preset_spec(Framework::HybriMoE), specs, options);
  EXPECT_EQ(m.finished_count(), 1U);  // only the head-of-line request ran
  EXPECT_EQ(m.rejected_count(), 4U);
  for (const auto& r : m.requests) {
    if (!r.rejected) continue;
    EXPECT_EQ(r.generated_tokens, 0U);
    EXPECT_THROW((void)r.ttft(), std::invalid_argument);
    EXPECT_THROW((void)r.e2e(), std::invalid_argument);
  }
}

TEST(ServePriorityTest, TierQueueCapacityDropsTheNewestOverflow) {
  // Capacity 1 on the best-effort queue, one slot busy: of three waiting
  // best-effort requests the two latest-arrived are rejected; the standard
  // tier is untouched.
  const std::vector<workload::RequestSpec> specs{
      make_request(0, 0.0, 16, 4, workload::Priority::Standard),
      make_request(1, 0.0, 4, 2, workload::Priority::BestEffort),
      make_request(2, 0.0, 4, 2, workload::Priority::BestEffort),
      make_request(3, 0.0, 4, 2, workload::Priority::BestEffort),
      make_request(4, 0.0, 4, 2, workload::Priority::Standard),
  };
  ServeOptions options;
  options.max_batch = 1;
  options.tiers[workload::priority_index(workload::Priority::BestEffort)]
      .queue_capacity = 1;
  ExperimentHarness harness(tiny_spec());
  const auto m = harness.serve(preset_spec(Framework::HybriMoE), specs, options);
  EXPECT_FALSE(metrics_of(m, 1).rejected);  // oldest best-effort survives
  EXPECT_TRUE(metrics_of(m, 2).rejected);
  EXPECT_TRUE(metrics_of(m, 3).rejected);
  EXPECT_FALSE(metrics_of(m, 0).rejected);
  EXPECT_FALSE(metrics_of(m, 4).rejected);
}

// -- Misuse ----------------------------------------------------------------

TEST(ServePriorityTest, RejectsMisuse) {
  ExperimentHarness harness(tiny_spec());
  const std::vector<workload::RequestSpec> specs{
      make_request(0, 0.0, 4, 2, workload::Priority::Standard)};

  // A zero-capacity tier queue admits nothing — configuration error.
  ServeOptions zero_cap;
  zero_cap.tiers[0].queue_capacity = 0;
  EXPECT_THROW((void)harness.serve(preset_spec(Framework::HybriMoE), specs, zero_cap),
               std::invalid_argument);

  ServeOptions no_valve;
  no_valve.preemption = true;
  no_valve.max_consecutive_preemptions = 0;  // would allow permanent starvation
  EXPECT_THROW((void)harness.serve(preset_spec(Framework::HybriMoE), specs, no_valve),
               std::invalid_argument);

  ServeOptions negative_slo;
  negative_slo.tiers[0].tbt_slo = -0.1;
  EXPECT_THROW((void)harness.serve(preset_spec(Framework::HybriMoE), specs, negative_slo),
               std::invalid_argument);

  // Request lifecycle misuse: preempting anything but a prefill, preempting
  // twice, resuming anything but a preempted request.
  Request r;
  EXPECT_THROW(r.preempt(0.0), std::invalid_argument);  // still Queued
  r.state = RequestState::Prefill;
  r.preempt(1.0);
  EXPECT_EQ(r.state, RequestState::Preempted);
  EXPECT_THROW(r.preempt(2.0), std::invalid_argument);  // already preempted
  r.resume(3.0);
  EXPECT_EQ(r.state, RequestState::Prefill);
  r.state = RequestState::Decode;
  EXPECT_THROW(r.resume(4.0), std::invalid_argument);
}

TEST(ServePriorityTest, PriorityNameParsingRejectsTyposWithDidYouMean) {
  EXPECT_EQ(workload::priority_from_name("vip"), workload::Priority::Vip);
  EXPECT_EQ(workload::priority_from_name("best-effort"),
            workload::Priority::BestEffort);
  try {
    (void)workload::priority_from_name("best_effort");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("best-effort"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace hybrimoe::runtime
