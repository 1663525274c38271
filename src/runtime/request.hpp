#pragma once

/// \file request.hpp
/// The serving layer's unit of work. A Request carries its workload identity
/// (arrival time, prompt length, decode budget, priority tier —
/// workload::RequestSpec), the routing traces that realise it, and the
/// lifecycle state the serving core (serve_sim::SimCore) drives it through:
///
///     Queued ──admit──► Prefill ──last chunk──► Decode ──budget──► Finished
///                         │   ▲
///                 preempt │   │ resume (next chunk boundary)
///                         ▼   │
///                       Preempted
///
///     Queued ──deadline / queue pressure / context budget──► Rejected
///
/// Requests with no prompt tokens (already-prefilled sessions) enter
/// directly in Decode; requests with no decode budget finish when their last
/// prefill chunk completes.
/// Preemption only happens at prefill chunk boundaries (a chunk in flight is
/// never torn); Rejected is terminal — a rejected request emits no tokens.
///
/// Ordering tie-break rule: the serving core processes requests in ascending
/// (arrival_time, id) order. Two requests sharing an arrival timestamp are
/// ordered by ascending id, so admission (and therefore every downstream
/// serving metric) is deterministic regardless of the order the caller
/// handed the requests in.

#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "workload/request_stream.hpp"
#include "workload/trace.hpp"

namespace hybrimoe::runtime {

/// Lifecycle state of a Request (see the diagram above).
enum class RequestState : std::uint8_t {
  Queued,
  Prefill,
  Preempted,  ///< prefill paused at a chunk boundary (preemption)
  Decode,
  Finished,
  Rejected,  ///< terminal: never admitted (deadline, queue pressure, budget)
};

/// \brief Lower-case name of a lifecycle state ("queued", "prefill", ...).
[[nodiscard]] constexpr const char* to_string(RequestState s) noexcept {
  switch (s) {
    case RequestState::Queued: return "queued";
    case RequestState::Prefill: return "prefill";
    case RequestState::Preempted: return "preempted";
    case RequestState::Decode: return "decode";
    case RequestState::Finished: return "finished";
    case RequestState::Rejected: return "rejected";
  }
  return "?";
}

/// One request's identity, routing traces and lifecycle bookkeeping.
struct Request {
  workload::RequestSpec spec;
  /// The prompt, split into the chunks the admission policy feeds the batch
  /// (chunk token counts must sum to spec.prompt_tokens). One chunk = whole
  /// prompt unless chunked prefill is enabled.
  std::vector<workload::PrefillTrace> prefill_chunks;
  /// One single-token forward per decode step (spec.decode_tokens steps).
  workload::DecodeTrace decode;

  // -- Lifecycle bookkeeping, owned by the serving core --------------------
  // Admission, first-token and finish times live in RequestMetrics.
  RequestState state = RequestState::Queued;
  std::size_t next_chunk = 0;    ///< prefill progress
  std::size_t next_step = 0;     ///< decode progress
  double last_token_time = 0.0;  ///< when the latest token was emitted
  /// Number of Prefill -> Preempted transitions this request suffered.
  std::size_t preemptions = 0;
  /// Consecutive steps this request's prefill has been deferred (reset on
  /// resume) — the engine's no-starvation counter.
  std::size_t preempt_streak = 0;
  /// KV-pressure evict-and-requeue round trips this request suffered (each
  /// discards its progress and returns it to the admission queue).
  std::size_t evictions = 0;

  /// \brief Pause the prefill at the current chunk boundary. Only a request
  /// in Prefill may be preempted; preempting twice (or preempting a decode)
  /// throws std::invalid_argument.
  void preempt() {
    HYBRIMOE_REQUIRE(state == RequestState::Prefill,
                     std::string("only a prefilling request can be preempted "
                                 "(request is ") +
                         runtime::to_string(state) + ")");
    state = RequestState::Preempted;
    ++preemptions;
  }

  /// \brief Resume a preempted prefill. Only a request in Preempted may be
  /// resumed; anything else throws std::invalid_argument.
  void resume() {
    HYBRIMOE_REQUIRE(state == RequestState::Preempted,
                     std::string("only a preempted request can be resumed "
                                 "(request is ") +
                         runtime::to_string(state) + ")");
    state = RequestState::Prefill;
    preempt_streak = 0;
  }
};

}  // namespace hybrimoe::runtime
