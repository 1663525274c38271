#pragma once

/// \file invariants.hpp
/// Reusable property checkers for the adversarial scenario suite. Scenario
/// runs are seeded and deterministic but their timelines are not golden
/// values — what must hold are *invariants*, and every checker here is
/// shared between the per-family driver tests (drivers_test.cpp), the
/// priority serving tests and the tier-isolation bench story:
///
///  * no starvation  — every admitted request reaches Finished with a
///    monotone lifecycle (arrival <= admit <= first_token <= finish) and
///    full token accounting;
///  * progress       — the serving clock strictly advances across steps and
///    every composed step performs work (tokens flow, latency is positive);
///  * tier isolation — VIP p99 TBT under load stays within a bound of its
///    unloaded value;
///  * conservation   — no expert transfer targets an accelerator that was
///    unavailable while the step ran;
///  * determinism    — the same scenario over the same stream reproduces the
///    same timeline and per-request metrics, bit for bit.
///
/// Checkers use non-fatal EXPECT_* so one violated step doesn't hide the
/// rest of the timeline.

#include <gtest/gtest.h>

#include <vector>

#include "runtime/serve_metrics.hpp"
#include "scenario/drivers.hpp"

namespace hybrimoe::scenario::testing {

/// Every non-rejected request finished with a monotone lifecycle and
/// complete token accounting (first token + one gap per decode step).
inline void check_no_starvation(const runtime::ServeMetrics& metrics) {
  for (const auto& r : metrics.requests) {
    if (r.rejected) continue;
    EXPECT_GE(r.admit, r.arrival) << "request " << r.id;
    EXPECT_GE(r.first_token, r.admit) << "request " << r.id;
    EXPECT_GE(r.finish, r.first_token) << "request " << r.id;
    EXPECT_GT(r.generated_tokens, 0U) << "request " << r.id;
    EXPECT_EQ(r.generated_tokens, 1 + r.tbt.size()) << "request " << r.id;
  }
}

/// The run made progress: at least one step ran, clocks advance strictly
/// across the timeline, and every step did real work.
inline void check_progress(const std::vector<StepRecord>& timeline) {
  ASSERT_FALSE(timeline.empty());
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const StepRecord& step = timeline[i];
    EXPECT_EQ(step.index, i);
    EXPECT_GT(step.latency, 0.0) << "step " << i;
    EXPECT_GT(step.end_clock, step.start_clock) << "step " << i;
    EXPECT_GT(step.prefill_tokens + step.decode_tokens, 0U) << "step " << i;
    EXPECT_GT(step.active_requests, 0U) << "step " << i;
    if (i > 0) {
      EXPECT_GE(step.start_clock, timeline[i - 1].end_clock) << "step " << i;
    }
  }
}

/// Tier isolation: the loaded VIP p99 TBT stays within `bound` times the
/// baseline VIP p99 TBT (the bench's 1.25x criterion).
inline void check_tier_isolation(const runtime::ServeMetrics& baseline,
                                 const runtime::ServeMetrics& loaded,
                                 double bound) {
  const double before = baseline.tbt_tails(workload::Priority::Vip).p99;
  const double after = loaded.tbt_tails(workload::Priority::Vip).p99;
  ASSERT_GT(before, 0.0);
  EXPECT_LE(after, bound * before)
      << "VIP p99 TBT " << after << " vs unloaded " << before;
}

/// Conservation: a step that ran while an accelerator was unavailable must
/// not have uploaded a single expert to it.
inline void check_transfer_targets(const std::vector<StepRecord>& timeline) {
  for (const StepRecord& step : timeline) {
    ASSERT_EQ(step.transfers_to_device.size(), step.device_available.size());
    for (std::size_t a = 0; a < step.device_available.size(); ++a) {
      if (step.device_available[a]) continue;
      EXPECT_EQ(step.transfers_to_device[a], 0U)
          << "step " << step.index << " uploaded to lost accelerator " << a;
    }
  }
}

/// Determinism: two runs of the same scenario over the same stream agree on
/// every step record and every per-request latency, exactly.
inline void check_deterministic(const std::vector<StepRecord>& a,
                                const std::vector<StepRecord>& b,
                                const runtime::ServeMetrics& ma,
                                const runtime::ServeMetrics& mb) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start_clock, b[i].start_clock) << "step " << i;
    EXPECT_EQ(a[i].end_clock, b[i].end_clock) << "step " << i;
    EXPECT_EQ(a[i].latency, b[i].latency) << "step " << i;
    EXPECT_EQ(a[i].prefill_tokens, b[i].prefill_tokens) << "step " << i;
    EXPECT_EQ(a[i].decode_tokens, b[i].decode_tokens) << "step " << i;
    EXPECT_EQ(a[i].transfers_to_device, b[i].transfers_to_device) << "step " << i;
    EXPECT_EQ(a[i].device_available, b[i].device_available) << "step " << i;
    EXPECT_EQ(a[i].link_scale, b[i].link_scale) << "step " << i;
  }
  ASSERT_EQ(ma.requests.size(), mb.requests.size());
  for (std::size_t i = 0; i < ma.requests.size(); ++i) {
    EXPECT_EQ(ma.requests[i].id, mb.requests[i].id);
    EXPECT_EQ(ma.requests[i].rejected, mb.requests[i].rejected);
    EXPECT_EQ(ma.requests[i].preemptions, mb.requests[i].preemptions);
    if (ma.requests[i].rejected || mb.requests[i].rejected) continue;
    EXPECT_EQ(ma.requests[i].first_token, mb.requests[i].first_token);
    EXPECT_EQ(ma.requests[i].finish, mb.requests[i].finish);
    EXPECT_EQ(ma.requests[i].tbt, mb.requests[i].tbt);
  }
  EXPECT_EQ(ma.makespan, mb.makespan);
}

}  // namespace hybrimoe::scenario::testing
