#include "serve_sim/sim_core.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace hybrimoe::serve_sim {

using runtime::Request;
using runtime::RequestMetrics;
using runtime::RequestState;
using runtime::TierPolicy;

SimCore::SimCore(runtime::OffloadEngine& engine,
                 const runtime::ServeOptions& options, TraceSource& source)
    : engine_(engine), options_(options), source_(source) {
  options_.validate();
  if (options_.kv.enabled()) accountant_.emplace(options_.kv);
}

std::size_t SimCore::index_of(const Request* r) const {
  return static_cast<std::size_t>(r - requests_->data());
}

double SimCore::footprint(const Request& r) const {
  // Full-context safe reservation: the request will eventually hold KV for
  // its whole prompt plus its whole decode budget, so admission reserves
  // that up front — no mid-decode OOM, mirroring vLLM-style conservative
  // admission rather than optimistic paging.
  return static_cast<double>(r.spec.prompt_tokens + r.spec.decode_tokens) *
         options_.kv.bytes_per_token;
}

const TierPolicy& SimCore::tier_of(const Request* r) const {
  return options_.tiers[workload::priority_index(r->spec.priority)];
}

void SimCore::reject(Request& r) {
  r.state = RequestState::Rejected;
  metrics_.requests[index_of(&r)].rejected = true;
  ++terminal_;
  ++rejected_total_;
}

runtime::ServeMetrics SimCore::run(std::vector<Request>& requests) {
  HYBRIMOE_REQUIRE(!requests.empty(), "serving an empty request stream");
  requests_ = &requests;
  metrics_.requests.resize(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    RequestMetrics& m = metrics_.requests[i];
    m.id = requests[i].spec.id;
    m.priority = requests[i].spec.priority;
    m.arrival = requests[i].spec.arrival_time;
    m.prompt_tokens = requests[i].spec.prompt_tokens;
  }
  engine_.reset_cache_stats();

  // Seed the heap with every arrival. Requests are (arrival, id)-sorted, so
  // the monotone seq reproduces that order for simultaneous arrivals.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    HYBRIMOE_REQUIRE(requests[i].spec.arrival_time >= 0.0,
                     "arrival time must be non-negative");
    heap_.push(EventKind::Arrival, requests[i].spec.arrival_time, i);
  }

  while (terminal_ < requests.size()) {
    // Drain: apply every event at or before the clock, in (time, seq) order.
    if (!heap_.empty() && heap_.top().time <= clock_) {
      handle(heap_.pop());
      continue;
    }
    // Dispatch: with no step in flight, admit and compose the next one.
    if (!step_in_flight_) {
      if (try_dispatch()) continue;
      if (terminal_ == requests.size()) break;  // everything rejected
      HYBRIMOE_ASSERT(!heap_.empty(), "serve loop stalled");
    }
    // Idle (or a step in flight): advance to the next scheduled event.
    clock_ = heap_.top().time;
  }
  // Late bookkeeping events (Finish of the last completions) still pending.
  while (!heap_.empty() && heap_.top().time <= clock_) handle(heap_.pop());
  HYBRIMOE_ASSERT(!step_in_flight_, "run ended with a step in flight");

  metrics_.makespan = clock_;
  metrics_.steps.stage = any_decode_ ? sched::Stage::Decode : sched::Stage::Prefill;
  // Merge every device cache's counters with the transient-buffer hits
  // run_step accumulated, exactly as run_prefill/run_decode do.
  cache::CacheStats stats = engine_.aggregate_cache_stats();
  stats.hits += metrics_.steps.cache.hits;
  metrics_.steps.cache = stats;

  // Terminal accounting: every request either ran to completion with
  // exactly its budgeted tokens, or was rejected and emitted none.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    metrics_.requests[i].evictions = r.evictions;
    if (r.state == RequestState::Rejected) {
      HYBRIMOE_ASSERT(metrics_.requests[i].generated_tokens == 0,
                      "rejected request emitted tokens");
      continue;
    }
    HYBRIMOE_ASSERT(r.state == RequestState::Finished, "unfinished request at exit");
    const std::size_t expected =
        (r.spec.prompt_tokens > 0 ? 1 : 0) + r.spec.decode_tokens;
    HYBRIMOE_ASSERT(metrics_.requests[i].generated_tokens == expected,
                    "request token accounting mismatch");
    metrics_.requests[i].preemptions = r.preemptions;
  }
  if (accountant_.has_value()) {
    HYBRIMOE_ASSERT(accountant_->used() <= 1e-6,
                    "KV reservations leaked past the run");
    metrics_.kv.budget_bytes = accountant_->budget();
    metrics_.kv.peak_bytes = accountant_->peak();
    metrics_.kv.rejected = kv_rejected_;
    metrics_.kv.evictions = kv_evictions_;
  }
  return std::move(metrics_);
}

void SimCore::handle(const Event& event) {
  HYBRIMOE_ASSERT(event.time >= clock_, "event from the past");
  clock_ = event.time;
  if (options_.hook != nullptr) options_.hook->on_sim_event(event);
  switch (event.kind) {
    case EventKind::Arrival: on_arrival(event); break;
    case EventKind::PrefillChunk: on_prefill_chunk(event); break;
    case EventKind::DecodeStep: on_decode_step(event); break;
    case EventKind::TransferComplete: break;  // accounting feed only
    case EventKind::Finish: on_finish(event); break;
    case EventKind::Evict: break;  // accounting feed only (applied at post)
  }
}

void SimCore::on_arrival(const Event& event) {
  Request& r = (*requests_)[event.request];
  // A request whose total token budget exceeds the context window is
  // rejected outright — it could never be scheduled. Same for a KV
  // footprint above the whole budget.
  if (options_.max_context_tokens > 0 &&
      r.spec.prompt_tokens + r.spec.decode_tokens > options_.max_context_tokens) {
    reject(r);
    return;
  }
  if (accountant_.has_value() && accountant_->impossible(footprint(r))) {
    reject(r);
    ++kv_rejected_;
    return;
  }
  waiting_.push_back(&r);
}

void SimCore::on_prefill_chunk(const Event& event) {
  Request& r = (*requests_)[event.request];
  ++r.next_chunk;
  if (r.next_chunk == r.prefill_chunks.size()) {
    // Prompt fully processed: the first output token is ready.
    RequestMetrics& m = metrics_.requests[event.request];
    r.first_token_time = clock_;
    r.last_token_time = clock_;
    m.first_token = clock_;
    ++m.generated_tokens;
    if (r.decode.num_steps() > 0) {
      r.state = RequestState::Decode;
    } else {
      r.state = RequestState::Finished;
      r.finish_time = clock_;
      m.finish = clock_;
      ++terminal_;
      heap_.push(EventKind::Finish, clock_, event.request);
    }
  }
  step_event_done();
}

void SimCore::on_decode_step(const Event& event) {
  Request& r = (*requests_)[event.request];
  RequestMetrics& m = metrics_.requests[event.request];
  if (r.prefill_chunks.empty() && r.next_step == 0) {
    // Promptless session: its first decode token is its first token.
    r.first_token_time = clock_;
    m.first_token = clock_;
  } else {
    m.tbt.push_back(clock_ - r.last_token_time);
  }
  r.last_token_time = clock_;
  ++m.generated_tokens;
  ++r.next_step;
  if (r.next_step == r.decode.num_steps()) {
    r.state = RequestState::Finished;
    r.finish_time = clock_;
    m.finish = clock_;
    ++terminal_;
    heap_.push(EventKind::Finish, clock_, event.request);
  }
  step_event_done();
}

void SimCore::on_finish(const Event& event) {
  Request& r = (*requests_)[event.request];
  HYBRIMOE_ASSERT(r.state == RequestState::Finished, "finish event for a live request");
  if (accountant_.has_value()) accountant_->release(footprint(r));
  std::erase(active_, &r);
  source_.release(r);
}

void SimCore::step_event_done() {
  HYBRIMOE_ASSERT(step_in_flight_ && step_events_remaining_ > 0,
                  "completion event outside a step");
  if (--step_events_remaining_ == 0) {
    step_in_flight_ = false;
    if (options_.hook != nullptr)
      options_.hook->after_step(step_info_, metrics_.steps);
  }
}

void SimCore::admit_waiting() {
  // Deadline-aware rejection: a request still waiting past its tier's
  // TTFT deadline will miss it no matter what — turn it away now.
  std::erase_if(waiting_, [&](Request* r) {
    const TierPolicy& tier = tier_of(r);
    if (tier.ttft_deadline <= 0.0 ||
        clock_ <= r->spec.arrival_time + tier.ttft_deadline)
      return false;
    reject(*r);
    return true;
  });

  // Tier queue pressure: drop the newest overflow of any bounded tier.
  for (std::size_t t = 0; t < options_.tiers.size(); ++t) {
    if (!options_.tiers[t].queue_capacity.has_value()) continue;
    const std::size_t cap = *options_.tiers[t].queue_capacity;
    std::size_t count = 0;
    for (const Request* r : waiting_)
      count += workload::priority_index(r->spec.priority) == t ? 1 : 0;
    // waiting is (arrival, id)-ordered, so reverse iteration drops the
    // latest-arrived first.
    for (std::size_t i = waiting_.size(); count > cap && i-- > 0;) {
      if (workload::priority_index(waiting_[i]->spec.priority) != t) continue;
      reject(*waiting_[i]);
      waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(i));
      --count;
    }
  }

  // Admission while the batch has capacity: FIFO by default; with
  // priority_admission the highest tier wins (FIFO within a tier — the
  // first max-tier element of the ordered waiting queue). KV accounting
  // gates each pick: the head-of-line request waits (queue), is shed
  // (reject), or evicts strictly lower tiers (evict) when it does not fit.
  while (!waiting_.empty() && active_.size() < options_.max_batch) {
    std::size_t pick = 0;
    if (options_.priority_admission) {
      for (std::size_t i = 1; i < waiting_.size(); ++i)
        if (waiting_[i]->spec.priority > waiting_[pick]->spec.priority) pick = i;
    }
    Request& r = *waiting_[pick];
    if (accountant_.has_value()) {
      const double bytes = footprint(r);
      if (!accountant_->fits(bytes)) {
        if (options_.kv.mode == AdmissionMode::Reject) {
          waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(pick));
          reject(r);
          ++kv_rejected_;
          continue;
        }
        // Queue mode blocks head-of-line; evict mode falls back to blocking
        // when the evictable (strictly lower-tier) mass is insufficient.
        if (options_.kv.mode != AdmissionMode::EvictRequeue || !evict_for(r))
          break;
      }
      accountant_->reserve(bytes);
    }
    // Erase by value: evict_for may have requeued victims *before* `pick`,
    // so the index no longer identifies r.
    std::erase(waiting_, &r);
    source_.acquire(r);
    r.admit_time = clock_;
    r.state = r.prefill_chunks.empty() ? RequestState::Decode : RequestState::Prefill;
    metrics_.requests[index_of(&r)].admit = clock_;
    active_.push_back(&r);
  }
}

bool SimCore::evict_for(const Request& incoming) {
  const std::size_t incoming_tier = workload::priority_index(incoming.spec.priority);
  const double needed = footprint(incoming);
  // Plan before committing: walk tiers from the bottom up, newest-admitted
  // victims first within each tier, and only evict if the plan actually
  // frees enough — a failed plan must leave the run untouched.
  std::vector<Request*> plan;
  double freed = 0.0;
  for (std::size_t tier = 0;
       tier < incoming_tier && !accountant_->fits(needed - freed); ++tier) {
    for (std::size_t i = active_.size(); i-- > 0;) {
      if (workload::priority_index(active_[i]->spec.priority) != tier) continue;
      plan.push_back(active_[i]);
      freed += footprint(*active_[i]);
      if (accountant_->fits(needed - freed)) break;
    }
  }
  if (!accountant_->fits(needed - freed)) return false;
  for (Request* victim : plan) evict_one(*victim);
  return true;
}

void SimCore::evict_one(Request& victim) {
  const std::size_t index = index_of(&victim);
  accountant_->release(footprint(victim));
  std::erase(active_, &victim);
  // Discard progress: the victim restarts from its first chunk when it is
  // re-admitted, and its emitted tokens are forgotten (the terminal token
  // conservation assert still holds — it will re-emit its full budget).
  if (victim.state == RequestState::Preempted) victim.resume(clock_);
  victim.state = RequestState::Queued;
  victim.next_chunk = 0;
  victim.next_step = 0;
  victim.admit_time = 0.0;
  victim.first_token_time = 0.0;
  victim.last_token_time = 0.0;
  victim.preempt_streak = 0;
  ++victim.evictions;
  RequestMetrics& m = metrics_.requests[index];
  m.generated_tokens = 0;
  m.first_token = 0.0;
  m.admit = 0.0;
  m.tbt.clear();
  // Requeue at the (arrival, id) position so queue-order invariants hold.
  const auto pos = std::lower_bound(
      waiting_.begin(), waiting_.end(), &victim,
      [](const Request* a, const Request* b) {
        if (a->spec.arrival_time != b->spec.arrival_time)
          return a->spec.arrival_time < b->spec.arrival_time;
        return a->spec.id < b->spec.id;
      });
  waiting_.insert(pos, &victim);
  ++kv_evictions_;
  heap_.push(EventKind::Evict, clock_, index);
}

bool SimCore::try_dispatch() {
  admit_waiting();
  if (active_.empty()) return false;

  auto& steps = metrics_.steps;
  const std::size_t step_index = steps.per_forward.size();
  if (options_.hook != nullptr)
    options_.hook->before_step(step_index, clock_, engine_);

  // The prefill candidate: earliest-admitted request still prefilling
  // (paused or not). With preemption enabled, defer its chunk when running
  // it would push a higher-tier active decode past its tier's TBT SLO —
  // unless the candidate already sat out max_consecutive_preemptions
  // steps (the no-starvation valve).
  Request* candidate = nullptr;
  for (Request* r : active_) {
    if (r->state == RequestState::Prefill || r->state == RequestState::Preempted) {
      candidate = r;
      break;
    }
  }
  bool defer = false;
  if (options_.preemption && candidate != nullptr && est_prefill_ > 0.0 &&
      est_decode_ > 0.0 && est_decode_ < est_prefill_ &&
      candidate->preempt_streak < options_.max_consecutive_preemptions) {
    for (const Request* d : active_) {
      if (d->state != RequestState::Decode) continue;
      if (!(d->spec.priority > candidate->spec.priority)) continue;
      const TierPolicy& tier = tier_of(d);
      if (tier.tbt_slo <= 0.0) continue;
      // A decode that has not emitted yet has no inter-token gap to protect.
      if (d->prefill_chunks.empty() && d->next_step == 0) continue;
      if ((clock_ - d->last_token_time) + est_prefill_ > tier.tbt_slo) {
        defer = true;
        break;
      }
    }
  }
  if (candidate != nullptr) {
    if (defer) {
      if (candidate->state == RequestState::Prefill) candidate->preempt(clock_);
      ++candidate->preempt_streak;
      ++preemptions_total_;
      metrics_.requests[index_of(candidate)].preemptions = candidate->preemptions;
    } else if (candidate->state == RequestState::Preempted) {
      candidate->resume(clock_);
    }
  }

  // Compose the step: the candidate's chunk (unless deferred) plus every
  // active decode, in admission order — merge order is float-sensitive,
  // so parts must appear exactly as the batch iterates.
  parts_.clear();
  decoding_.clear();
  Request* prefilling = nullptr;
  std::size_t prefill_tokens = 0;
  std::size_t decode_tokens = 0;
  for (Request* r : active_) {
    if (r->state == RequestState::Prefill) {
      if (r != candidate || defer || prefilling != nullptr) continue;
      prefilling = r;
      const workload::ForwardTrace& chunk = r->prefill_chunks[r->next_chunk].forward;
      parts_.push_back(&chunk);
      prefill_tokens += chunk.tokens;
    } else if (r->state == RequestState::Decode) {
      const workload::ForwardTrace& step = r->decode.steps[r->next_step];
      parts_.push_back(&step);
      decode_tokens += step.tokens;
      decoding_.push_back(r);
    }
    // Preempted requests (and prefills behind the candidate) sit the
    // step out.
  }
  HYBRIMOE_ASSERT(!parts_.empty(), "composed an empty step");
  const std::size_t batch_size = active_.size();
  const sched::Stage stage = sched::dominant_stage(prefill_tokens, decode_tokens);
  if (!decoding_.empty()) any_decode_ = true;

  const std::size_t uploads_before =
      steps.transfers + steps.prefetches + steps.maintenance;
  const double start_clock = clock_;
  double latency;
  if (options_.hook != nullptr) {
    // The transform hook needs a mutable copy even for single-part steps.
    workload::ForwardTrace merged = parts_.size() == 1
                                        ? *parts_.front()
                                        : workload::merge_forward_traces(parts_);
    options_.hook->transform_step(step_index, merged);
    latency = engine_.run_step(merged, stage, steps);
  } else if (parts_.size() == 1) {
    latency = engine_.run_step(*parts_.front(), stage, steps);
  } else {
    const workload::ForwardTrace merged = workload::merge_forward_traces(parts_);
    latency = engine_.run_step(merged, stage, steps);
  }
  steps.per_forward.push_back(latency);
  steps.total_latency += latency;
  steps.tokens += prefill_tokens + decode_tokens;
  const double end_clock = clock_ + latency;
  if (prefilling != nullptr) {
    est_prefill_ = latency;
  } else {
    est_decode_ = latency;
  }

  // Post the step's completion events: transfers land with the step, then
  // the prefill chunk, then every decode in admission order — the (time,
  // seq) pops replay the lockstep engine's bookkeeping order exactly.
  const std::size_t uploads =
      steps.transfers + steps.prefetches + steps.maintenance - uploads_before;
  if (uploads > 0)
    heap_.push(EventKind::TransferComplete, end_clock, index_of(active_.front()),
               uploads);
  std::size_t completion_events = 0;
  if (prefilling != nullptr) {
    heap_.push(EventKind::PrefillChunk, end_clock, index_of(prefilling));
    ++completion_events;
  }
  for (const Request* r : decoding_) {
    heap_.push(EventKind::DecodeStep, end_clock, index_of(r));
    ++completion_events;
  }
  step_in_flight_ = true;
  step_events_remaining_ = completion_events;
  step_info_ = runtime::StepInfo{};
  step_info_.index = step_index;
  step_info_.start_clock = start_clock;
  step_info_.end_clock = end_clock;
  step_info_.latency = latency;
  step_info_.stage = stage;
  step_info_.prefill_tokens = prefill_tokens;
  step_info_.decode_tokens = decode_tokens;
  step_info_.active_requests = batch_size;
  step_info_.waiting_requests = waiting_.size();
  for (const Request* r : waiting_)
    ++step_info_.waiting_by_tier[workload::priority_index(r->spec.priority)];
  step_info_.rejected_total = rejected_total_;
  step_info_.preemptions_total = preemptions_total_;
  if (accountant_.has_value()) {
    step_info_.kv_used_bytes = accountant_->used();
    step_info_.kv_peak_bytes = accountant_->peak();
  }
  step_info_.kv_evictions_total = kv_evictions_;
  return true;
}

}  // namespace hybrimoe::serve_sim
