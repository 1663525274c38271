#pragma once

/// \file serve_metrics.hpp
/// Request-level serving measurements, the counterpart of StageMetrics for
/// a serving run: per-request TTFT / TBT / E2E and queueing delay, plus
/// stream aggregates (throughput, tail percentiles via util/stats, goodput
/// under a TBT SLO). Same contract style as StageMetrics::tbt_mean() — any
/// accessor whose value would be a 0/0 is guarded by a precondition instead
/// of silently returning garbage.
///
/// Tier awareness: every RequestMetrics carries its priority, and each
/// distribution accessor takes an optional tier filter so tables can report
/// per-tier p50/p95/p99 (the tier-isolation invariant compares VIP tails
/// across load levels); the unfiltered aggregates iterate every request in
/// arrival order. Rejected requests (deadline/queue-pressure admission
/// control) are recorded but excluded from every latency distribution —
/// they have no tokens to measure.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runtime/metrics.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"
#include "workload/request_stream.hpp"

namespace hybrimoe::runtime {

/// Lifecycle timestamps and latency samples of one terminal request
/// (finished, or rejected by admission control).
struct RequestMetrics {
  std::uint64_t id = 0;
  workload::Priority priority = workload::Priority::Standard;
  bool rejected = false;     ///< admission control turned the request away
  double arrival = 0.0;      ///< entered the admission queue
  double admit = 0.0;        ///< left the queue (first batch membership)
  double first_token = 0.0;  ///< last prefill chunk (or first decode step) done
  double finish = 0.0;       ///< final token done
  std::size_t prompt_tokens = 0;
  std::size_t generated_tokens = 0;   ///< emitted tokens (first + decode steps)
  std::size_t preemptions = 0;        ///< prefill pauses suffered
  std::size_t evictions = 0;          ///< KV evict-and-requeue round trips
  std::vector<double> tbt;            ///< inter-token gaps, one per decode step

  [[nodiscard]] double ttft() const {
    HYBRIMOE_REQUIRE(!rejected, "rejected request has no latency");
    HYBRIMOE_REQUIRE(generated_tokens > 0, "request emitted no tokens");
    return first_token - arrival;
  }
  [[nodiscard]] double queueing_delay() const {
    HYBRIMOE_REQUIRE(!rejected, "rejected request has no latency");
    return admit - arrival;
  }
  [[nodiscard]] double e2e() const {
    HYBRIMOE_REQUIRE(!rejected, "rejected request has no latency");
    HYBRIMOE_REQUIRE(finish >= arrival, "request never finished");
    return finish - arrival;
  }
  [[nodiscard]] double tbt_mean() const {
    HYBRIMOE_REQUIRE(!tbt.empty(), "no decode gaps recorded");
    return util::mean(tbt);
  }
  /// SLO check used by goodput: the request's p95 inter-token gap stays
  /// within `tbt_slo`. Requests with no decode steps trivially meet it.
  [[nodiscard]] bool meets_tbt_slo(double tbt_slo) const {
    HYBRIMOE_REQUIRE(tbt_slo > 0.0, "TBT SLO must be positive");
    return tbt.empty() || util::p95(tbt) <= tbt_slo;
  }
};

/// Aggregate result of one serving run: every request's metrics (in
/// arrival order, all terminal — the core asserts each is finished or
/// rejected), the summed engine counters over the composed steps, and the
/// serving clock.
struct ServeMetrics {
  /// Optional tier filter for the distribution accessors: nullopt = every
  /// tier (the historical aggregates).
  using TierFilter = std::optional<workload::Priority>;

  std::vector<RequestMetrics> requests;
  /// Engine counters accumulated across every composed step: per-step
  /// latencies in per_forward, busy times, cache stats, transfer counts.
  StageMetrics steps;
  /// Final serving clock — busy step time plus idle gaps waiting for
  /// arrivals. Rates divide by this, not by steps.total_latency.
  double makespan = 0.0;

  /// KV-cache accounting outcome of the run. All zeros when accounting is
  /// disabled; emitters only write this block when budget_bytes > 0.
  struct KvSummary {
    double budget_bytes = 0.0;   ///< enforced budget
    double peak_bytes = 0.0;     ///< high-water mark of reserved KV
    std::size_t rejected = 0;    ///< requests shed by KV admission
    std::size_t evictions = 0;   ///< evict-and-requeue round trips
  };
  KvSummary kv;

  [[nodiscard]] std::size_t total_generated_tokens() const {
    std::size_t total = 0;
    for (const auto& r : requests) total += r.generated_tokens;
    return total;
  }
  [[nodiscard]] std::size_t finished_count() const {
    std::size_t n = 0;
    for (const auto& r : requests) n += r.rejected ? 0 : 1;
    return n;
  }
  [[nodiscard]] std::size_t rejected_count() const {
    return requests.size() - finished_count();
  }
  /// Total KV evict-and-requeue round trips across the stream (0 when KV
  /// accounting is disabled).
  [[nodiscard]] std::size_t eviction_count() const {
    std::size_t n = 0;
    for (const auto& r : requests) n += r.evictions;
    return n;
  }
  /// Terminal requests of one tier (finished + rejected).
  [[nodiscard]] std::size_t tier_count(workload::Priority tier) const {
    std::size_t n = 0;
    for (const auto& r : requests) n += r.priority == tier ? 1 : 0;
    return n;
  }

  /// Output tokens per second of serving time (0 for an empty run).
  [[nodiscard]] double throughput() const {
    return makespan > 0.0 ? static_cast<double>(total_generated_tokens()) / makespan
                          : 0.0;
  }
  /// Finished requests per second of serving time (0 for an empty run).
  [[nodiscard]] double request_throughput() const {
    return makespan > 0.0 ? static_cast<double>(finished_count()) / makespan : 0.0;
  }
  /// Output tokens per second from requests that met the TBT SLO — the
  /// throughput a latency-bound deployment can actually sell.
  [[nodiscard]] double goodput(double tbt_slo) const {
    if (makespan <= 0.0) return 0.0;
    std::size_t tokens = 0;
    for (const auto& r : requests)
      if (!r.rejected && r.meets_tbt_slo(tbt_slo)) tokens += r.generated_tokens;
    return static_cast<double>(tokens) / makespan;
  }

  // -- Latency distributions ---------------------------------------------
  // Each accessor walks `requests` in order, skipping rejected requests and
  // (when a tier filter is given) other tiers.
  [[nodiscard]] std::vector<double> ttfts(TierFilter tier = {}) const {
    std::vector<double> out;
    out.reserve(requests.size());
    for (const auto& r : requests)
      if (counted(r, tier)) out.push_back(r.ttft());
    return out;
  }
  [[nodiscard]] std::vector<double> e2es(TierFilter tier = {}) const {
    std::vector<double> out;
    out.reserve(requests.size());
    for (const auto& r : requests)
      if (counted(r, tier)) out.push_back(r.e2e());
    return out;
  }
  [[nodiscard]] std::vector<double> queueing_delays(TierFilter tier = {}) const {
    std::vector<double> out;
    out.reserve(requests.size());
    for (const auto& r : requests)
      if (counted(r, tier)) out.push_back(r.queueing_delay());
    return out;
  }
  /// All inter-token gaps pooled across requests.
  [[nodiscard]] std::vector<double> tbts(TierFilter tier = {}) const {
    std::vector<double> out;
    for (const auto& r : requests)
      if (counted(r, tier)) out.insert(out.end(), r.tbt.begin(), r.tbt.end());
    return out;
  }

  /// The p50/p95/p99 trio the serving tables report.
  struct TailSummary {
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  [[nodiscard]] TailSummary ttft_tails(TierFilter tier = {}) const {
    return tails(ttfts(tier), "no finished requests");
  }
  [[nodiscard]] TailSummary tbt_tails(TierFilter tier = {}) const {
    return tails(tbts(tier), "no decode gaps recorded");
  }
  [[nodiscard]] TailSummary e2e_tails(TierFilter tier = {}) const {
    return tails(e2es(tier), "no finished requests");
  }

  /// One row of a load sweep: the headline numbers a (shape, load) cell
  /// reports — everything guarded against empty distributions so a fully
  /// shed run still summarises (zeros instead of preconditions firing).
  /// `shape` and `arrival_rate` describe the workload and are filled by the
  /// caller via summarize()'s arguments.
  struct LoadSummary {
    std::string shape;           ///< arrival shape name ("poisson", ...)
    double arrival_rate = 0.0;   ///< offered load (requests/s)
    double tbt_slo = 0.0;        ///< SLO the goodput figure is judged under
    std::size_t requests = 0;
    std::size_t finished = 0;
    std::size_t rejected = 0;
    std::size_t evictions = 0;
    double reject_rate = 0.0;    ///< rejected / requests
    double ttft_p50 = 0.0;       ///< 0 when nothing finished
    double ttft_p99 = 0.0;
    double tbt_p50 = 0.0;        ///< 0 when no decode gaps were recorded
    double tbt_p99 = 0.0;
    double throughput = 0.0;     ///< output tokens/s over the makespan
    double goodput = 0.0;        ///< tokens/s from requests meeting the SLO
    double makespan = 0.0;
  };

  /// \brief Summarise the run as one load-sweep row for workload `shape` at
  /// offered `arrival_rate`, judging goodput under `tbt_slo` (0 = no SLO;
  /// goodput then equals throughput).
  [[nodiscard]] LoadSummary summarize(std::string shape, double arrival_rate,
                                      double tbt_slo) const {
    LoadSummary row;
    row.shape = std::move(shape);
    row.arrival_rate = arrival_rate;
    row.tbt_slo = tbt_slo;
    row.requests = requests.size();
    row.finished = finished_count();
    row.rejected = rejected_count();
    row.evictions = eviction_count();
    row.reject_rate = requests.empty()
                          ? 0.0
                          : static_cast<double>(row.rejected) /
                                static_cast<double>(requests.size());
    if (const auto v = ttfts(); !v.empty()) {
      row.ttft_p50 = util::percentile(v, 50.0);
      row.ttft_p99 = util::percentile(v, 99.0);
    }
    if (const auto v = tbts(); !v.empty()) {
      row.tbt_p50 = util::percentile(v, 50.0);
      row.tbt_p99 = util::percentile(v, 99.0);
    }
    row.throughput = throughput();
    row.goodput = tbt_slo > 0.0 ? goodput(tbt_slo) : row.throughput;
    row.makespan = makespan;
    return row;
  }

  /// Tail accessors (q in [0,100]); require at least one sample.
  [[nodiscard]] double ttft_p(double q, TierFilter tier = {}) const {
    const auto v = ttfts(tier);
    HYBRIMOE_REQUIRE(!v.empty(), "no finished requests");
    return util::percentile(v, q);
  }
  [[nodiscard]] double tbt_p(double q, TierFilter tier = {}) const {
    const auto v = tbts(tier);
    HYBRIMOE_REQUIRE(!v.empty(), "no decode gaps recorded");
    return util::percentile(v, q);
  }
  [[nodiscard]] double e2e_p(double q, TierFilter tier = {}) const {
    const auto v = e2es(tier);
    HYBRIMOE_REQUIRE(!v.empty(), "no finished requests");
    return util::percentile(v, q);
  }

 private:
  [[nodiscard]] static bool counted(const RequestMetrics& r, TierFilter tier) {
    return !r.rejected && (!tier.has_value() || r.priority == *tier);
  }
  [[nodiscard]] static TailSummary tails(const std::vector<double>& v,
                                         const char* what) {
    HYBRIMOE_REQUIRE(!v.empty(), what);
    return {util::p50(v), util::p95(v), util::p99(v)};
  }
};

}  // namespace hybrimoe::runtime
