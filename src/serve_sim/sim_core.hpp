#pragma once

/// \file sim_core.hpp
/// The discrete-event serving core. SimCore replays a request stream as a
/// timestamped event simulation: request arrivals, per-part step completions
/// (one PrefillChunk or DecodeStep event per composed batch part), transfer
/// landings, finishes, and KV-pressure evictions all live on one EventHeap
/// ordered by (time, seq). The loop alternates two moves — *drain* every
/// event at or before the clock, then *dispatch* a composed step through
/// OffloadEngine::run_step when none is in flight.
///
/// Each composed step carries at most one prefill chunk (the
/// earliest-admitted request still prefilling) plus every active decode; the
/// per-request routings merge into one per-layer expert multiset
/// (workload::merge_forward_traces) and the step's scheduling regime follows
/// the token mass (sched::dominant_stage). Time is the cost model's virtual
/// clock: a step advances it by its modeled latency, an idle gap advances it
/// to the next arrival.
///
/// On top of that loop sit KV-cache admission control (serve_sim/kv.hpp) —
/// reserve-on-admit, release-on-terminal, with queue / reject /
/// evict-and-requeue policies layered on the tier machinery — and the event
/// feed (StepHook::on_sim_event) scenario drivers record timelines from.
///
/// Routing traces are materialised when a request is admitted and freed
/// when it finishes, so live trace memory is bounded by the batch size
/// instead of the stream length (bench/load_sweep carries 10^5-10^6
/// requests through one run). Per-request traces derive from (generator
/// seed, request id), so every stack serves byte-identical traffic.

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "runtime/serve_engine.hpp"
#include "serve_sim/event.hpp"
#include "serve_sim/kv.hpp"
#include "workload/generator.hpp"

namespace hybrimoe::serve_sim {

/// One serving run as a discrete-event simulation. A SimCore is single-use:
/// construct, call run() once, read the metrics. Not internally
/// synchronized: in Threaded execution mode the calling thread is the GPU
/// lane of every composed step (see exec::HybridExecutor).
class SimCore {
 public:
  /// \brief Bind the run to its engine, its options (validated here; throws
  /// std::invalid_argument) and the generator that materialises each
  /// admitted request's traces. All three must outlive the run.
  SimCore(runtime::OffloadEngine& engine, const runtime::ServeOptions& options,
          workload::TraceGenerator& generator);

  /// \brief Serve the stream to completion. Requests are processed in
  /// (arrival, id) order (see request.hpp for the tie-break rule); throws
  /// std::invalid_argument on an empty stream, a request with no tokens or
  /// a negative arrival time. Returns per-request metrics in that order plus
  /// the aggregate step metrics (including, in Threaded execution mode,
  /// accumulated measured_latency/exec_digest); asserts that every request
  /// ended terminal — finished with exactly its budgeted tokens, or rejected
  /// by admission control with none — and that every KV reservation was
  /// returned. The generator is left where the last materialised request's
  /// traces ended.
  [[nodiscard]] runtime::ServeMetrics run(std::span<const workload::RequestSpec> specs);

 private:
  void handle(const Event& event);
  void on_arrival(const Event& event);
  void on_prefill_chunk(const Event& event);
  void on_decode_step(const Event& event);
  void on_finish(const Event& event);
  void step_event_done();
  /// Admission + composition + run_step; false when nothing could run.
  bool try_dispatch();
  void admit_waiting();
  /// Evict strictly lower-tier active requests (latest admitted first) until
  /// `incoming` fits; false (and no state change) if the evictable mass is
  /// insufficient.
  bool evict_for(const runtime::Request& incoming);
  void evict_one(runtime::Request& victim);
  void reject(runtime::Request& r);

  [[nodiscard]] std::size_t index_of(const runtime::Request* r) const;
  [[nodiscard]] double footprint(const runtime::Request& r) const;
  [[nodiscard]] const runtime::TierPolicy& tier_of(const runtime::Request* r) const;

  runtime::OffloadEngine& engine_;
  const runtime::ServeOptions& options_;
  workload::TraceGenerator& generator_;

  // (arrival, id) order; sized once in run(), so the Request* queues below
  // stay valid for the whole run.
  std::vector<runtime::Request> requests_;
  runtime::ServeMetrics metrics_;
  EventHeap heap_;
  double clock_ = 0.0;
  std::size_t terminal_ = 0;  // finished + rejected
  bool any_decode_ = false;

  std::vector<runtime::Request*> waiting_;  // surfaced, unadmitted; (arrival, id)
  std::vector<runtime::Request*> active_;   // admission order == decode order
  std::vector<const workload::ForwardTrace*> parts_;
  std::vector<runtime::Request*> decoding_;
  // Running step-latency estimates for the preemption decision: the latest
  // observed latency of a step with / without a prefill chunk. Negative
  // until observed — no preemption before both regimes have been seen.
  double est_prefill_ = -1.0;
  double est_decode_ = -1.0;

  // The step in flight, if any: completion events outstanding and the
  // summary after_step receives once the last one lands.
  bool step_in_flight_ = false;
  std::size_t step_events_remaining_ = 0;
  runtime::StepInfo step_info_;

  std::optional<KvAccountant> accountant_;
  std::size_t kv_rejected_ = 0;
  std::size_t kv_evictions_ = 0;
  // Cumulative serving-state counters snapshotted into every StepInfo.
  std::size_t rejected_total_ = 0;
  std::size_t preemptions_total_ = 0;
};

}  // namespace hybrimoe::serve_sim
