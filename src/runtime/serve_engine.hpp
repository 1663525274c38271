#pragma once

/// \file serve_engine.hpp
/// The request-level serving surface: the options, admission policies and
/// step hooks of a serving run. The run itself is serve_sim::SimCore (see
/// sim_core.hpp for the event loop and step composition), reached through
/// ExperimentHarness::serve_stream.
///
/// Admission is FIFO in (arrival, id) order with a `max_batch` cap by
/// default, so no request starves: slots free as requests finish and the
/// queue drains in order. Three opt-in policies layer on top (each is
/// default-off and, when off, changes nothing):
///  * priority_admission — waiting requests are admitted highest tier first
///    (VIP > standard > best-effort), FIFO within a tier;
///  * per-tier admission control — a tier with a `ttft_deadline` rejects
///    requests still queued past it, a tier with a `queue_capacity` rejects
///    the newest overflow, and `max_context_tokens` rejects requests whose
///    prompt + decode budget exceeds the context window (all rejections are
///    terminal: the request is recorded with rejected=true and emits no
///    tokens);
///  * preemption — a long prefill is paused at a chunk boundary whenever
///    composing its next chunk would push a *higher-tier* active decode past
///    its tier's TBT SLO; the decode-only step runs instead, and the prefill
///    resumes once the pressure clears (or unconditionally after
///    `max_consecutive_preemptions` deferred steps — the no-starvation
///    valve).

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/request.hpp"
#include "runtime/serve_metrics.hpp"
#include "serve_sim/event.hpp"
#include "serve_sim/kv.hpp"
#include "workload/generator.hpp"

namespace hybrimoe::runtime {

/// Completed-step summary handed to StepHook::after_step. The serving-state
/// block (waiting depths, cumulative rejection/preemption/KV counters) is
/// snapshotted when the step is composed — hooks are pure observers, so the
/// extra fields cost nothing on the hook-free fast path (the core fills the
/// struct unconditionally either way).
struct StepInfo {
  std::size_t index = 0;        ///< engine step index (0-based, idle gaps excluded)
  double start_clock = 0.0;     ///< serving clock when the step began
  double end_clock = 0.0;       ///< serving clock after the step's latency
  double latency = 0.0;         ///< modeled step latency
  sched::Stage stage = sched::Stage::Prefill;  ///< dominant scheduling regime
  std::size_t prefill_tokens = 0;
  std::size_t decode_tokens = 0;
  std::size_t active_requests = 0;  ///< batch size when the step ran
  std::size_t waiting_requests = 0;  ///< surfaced, unadmitted when composed
  /// Waiting requests per priority tier (workload::priority_index order).
  std::array<std::size_t, workload::kNumPriorities> waiting_by_tier{};
  std::size_t rejected_total = 0;     ///< cumulative admission rejections
  std::size_t preemptions_total = 0;  ///< cumulative deferred prefill steps
  double kv_used_bytes = 0.0;   ///< KV reservation when composed (0 = no KV)
  double kv_peak_bytes = 0.0;   ///< KV high-water mark so far
  std::size_t kv_evictions_total = 0;  ///< cumulative KV-pressure evictions
};

/// Observation/perturbation points around every composed serving step — the
/// seam the scenario fault drivers (scenario/drivers.hpp) plug into. All
/// callbacks default to no-ops; ServeOptions::hook == nullptr skips them
/// entirely (and keeps the single-part fast path, which serves a one-part
/// step's trace without copying it).
class StepHook {
 public:
  virtual ~StepHook() = default;
  /// Before the step's batch is composed: mutate engine/topology state
  /// (degrade a link, lose a device) as of serving instant `clock`.
  virtual void before_step(std::size_t step_index, double clock,
                           OffloadEngine& engine) {
    (void)step_index, (void)clock, (void)engine;
  }
  /// After merging, before execution: perturb the step's routing trace
  /// (cache-thrash rotation). Only called when a hook is installed.
  virtual void transform_step(std::size_t step_index,
                              workload::ForwardTrace& merged) {
    (void)step_index, (void)merged;
  }
  /// After the step completed and the clock advanced; `steps` holds the
  /// cumulative engine counters (device_transfers et al.).
  virtual void after_step(const StepInfo& info, const StageMetrics& steps) {
    (void)info, (void)steps;
  }
  /// Every event the discrete-event core pops, in (time, seq) order —
  /// arrivals, per-part completions, transfer landings, finishes, KV
  /// evictions. Observation only (the event has already been applied);
  /// scenario drivers record timelines from this feed.
  virtual void on_sim_event(const serve_sim::Event& event) { (void)event; }
};

/// Admission/SLO policy of one priority tier (ServeOptions::tiers, indexed
/// by workload::priority_index). All fields default to "no policy".
struct TierPolicy {
  /// Target inter-token gap for this tier's decodes; 0 = no SLO. Drives
  /// preemption: a lower-tier prefill defers when it would push one of this
  /// tier's decodes past the SLO.
  double tbt_slo = 0.0;
  /// Reject a request still waiting `ttft_deadline` after its arrival;
  /// 0 = wait forever.
  double ttft_deadline = 0.0;
  /// Maximum waiting (surfaced, unadmitted) requests of this tier; the
  /// newest overflow is rejected. Unset = unbounded. 0 is invalid — a tier
  /// that admits nothing is a configuration error, not a policy.
  std::optional<std::size_t> queue_capacity;

  /// \brief Throws std::invalid_argument on negative SLOs/deadlines or a
  /// zero-capacity queue.
  void validate() const;
};

/// Serving-loop knobs.
struct ServeOptions {
  /// Maximum concurrently active (admitted, unfinished) requests.
  std::size_t max_batch = 8;
  /// Prompt chunk size: admitted requests' prompts are split into chunks of
  /// at most this many tokens (0 = whole prompt in one step).
  std::size_t max_prefill_chunk = 0;

  /// Admit highest tier first (FIFO within a tier). Off: pure FIFO.
  bool priority_admission = false;
  /// Pause lower-tier prefills at chunk boundaries to protect higher-tier
  /// decode SLOs (see the file comment). Off: prefills never defer.
  bool preemption = false;
  /// No-starvation valve: after this many consecutively deferred steps the
  /// prefill runs regardless of SLO pressure. Must be >= 1.
  std::size_t max_consecutive_preemptions = 4;
  /// Context window: reject requests with prompt + decode budget above this
  /// many tokens. 0 = unlimited.
  std::size_t max_context_tokens = 0;
  /// Per-tier admission/SLO policy, indexed by workload::priority_index.
  std::array<TierPolicy, workload::kNumPriorities> tiers{};
  /// KV-cache memory accounting (serve_sim/kv.hpp). Disabled by default
  /// (budget 0): nothing is reserved and nothing is shed for memory. When
  /// enabled, bytes_per_token must be resolved (derive it from the model
  /// with serve_sim::model_kv_bytes_per_token) and every admission reserves
  /// the request's full-context footprint against the budget.
  serve_sim::KvSpec kv;
  /// Step observation/perturbation hook (scenario drivers). Not owned; must
  /// outlive the run. nullptr = no hook.
  StepHook* hook = nullptr;

  /// \brief Throws std::invalid_argument on structurally invalid options.
  void validate() const;
};

/// Materialise routing traces for a request stream: per request, reset the
/// generator to a seed derived from (generator seed, request id), then
/// generate its prompt chunks and decode steps as one continuous latent
/// process. Deterministic per request and independent of batch composition,
/// so every framework serves byte-identical traffic and a request's routing
/// doesn't change when the batching dynamics do — these are exactly the
/// traces a serve builds at admission.
/// Benchmark-pinned surface: bench/e2e calls it, so its signature stays.
[[nodiscard]] std::vector<Request> materialize_requests(
    workload::TraceGenerator& generator,
    std::span<const workload::RequestSpec> specs, std::size_t max_prefill_chunk = 0);

}  // namespace hybrimoe::runtime
