/// \file serve_event_equivalence_test.cpp
/// The bit-identity contract of the discrete-event rebuild: ServeEngine
/// (event heap + drain/dispatch loop, serve_sim/sim_core.cpp) must reproduce
/// the pre-event *step-loop* engine's ServeMetrics exactly — every clock,
/// every latency sample, every counter — for every stream the old engine
/// could serve (KV accounting off; it did not exist). The reference below is
/// a frozen copy of the step-loop ServeEngine::run as it stood before the
/// event core landed; it must not be "fixed" to track the library — drift
/// here is the regression this test exists to catch.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "runtime/serve_engine.hpp"
#include "runtime/session.hpp"

namespace hybrimoe::runtime {
namespace {

/// Frozen pre-event-core serving loop (the lockstep step engine).
ServeMetrics reference_step_loop_run(OffloadEngine& engine,
                                     std::vector<Request> requests,
                                     const ServeOptions& options) {
  options.validate();
  HYBRIMOE_REQUIRE(!requests.empty(), "serving an empty request stream");
  std::stable_sort(requests.begin(), requests.end(), [](const Request& a,
                                                        const Request& b) {
    if (a.spec.arrival_time != b.spec.arrival_time)
      return a.spec.arrival_time < b.spec.arrival_time;
    return a.spec.id < b.spec.id;
  });

  ServeMetrics metrics;
  metrics.requests.resize(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    RequestMetrics& m = metrics.requests[i];
    m.id = requests[i].spec.id;
    m.priority = requests[i].spec.priority;
    m.arrival = requests[i].spec.arrival_time;
    m.prompt_tokens = requests[i].spec.prompt_tokens;
  }
  StageMetrics& steps = metrics.steps;
  engine.device_cache(0).reset_stats();

  double clock = 0.0;
  std::size_t next_arrival = 0;
  std::size_t terminal = 0;
  bool any_decode = false;
  std::vector<Request*> waiting;
  std::vector<Request*> active;
  std::vector<const workload::ForwardTrace*> parts;
  std::vector<Request*> decoding;
  double est_prefill = -1.0;
  double est_decode = -1.0;
  const auto index_of = [&](const Request* r) {
    return static_cast<std::size_t>(r - requests.data());
  };
  const auto tier_of = [&](const Request* r) -> const TierPolicy& {
    return options.tiers[workload::priority_index(r->spec.priority)];
  };
  const auto reject = [&](Request& r) {
    r.state = RequestState::Rejected;
    metrics.requests[index_of(&r)].rejected = true;
    ++terminal;
  };

  while (terminal < requests.size()) {
    while (next_arrival < requests.size() &&
           requests[next_arrival].spec.arrival_time <= clock) {
      Request& r = requests[next_arrival++];
      if (options.max_context_tokens > 0 &&
          r.spec.prompt_tokens + r.spec.decode_tokens > options.max_context_tokens) {
        reject(r);
        continue;
      }
      waiting.push_back(&r);
    }

    std::erase_if(waiting, [&](Request* r) {
      const TierPolicy& tier = tier_of(r);
      if (tier.ttft_deadline <= 0.0 ||
          clock <= r->spec.arrival_time + tier.ttft_deadline)
        return false;
      reject(*r);
      return true;
    });

    for (std::size_t t = 0; t < options.tiers.size(); ++t) {
      if (!options.tiers[t].queue_capacity.has_value()) continue;
      const std::size_t cap = *options.tiers[t].queue_capacity;
      std::size_t count = 0;
      for (const Request* r : waiting)
        count += workload::priority_index(r->spec.priority) == t ? 1 : 0;
      for (std::size_t i = waiting.size(); count > cap && i-- > 0;) {
        if (workload::priority_index(waiting[i]->spec.priority) != t) continue;
        reject(*waiting[i]);
        waiting.erase(waiting.begin() + static_cast<std::ptrdiff_t>(i));
        --count;
      }
    }

    while (!waiting.empty() && active.size() < options.max_batch) {
      std::size_t pick = 0;
      if (options.priority_admission) {
        for (std::size_t i = 1; i < waiting.size(); ++i)
          if (waiting[i]->spec.priority > waiting[pick]->spec.priority) pick = i;
      }
      Request& r = *waiting[pick];
      waiting.erase(waiting.begin() + static_cast<std::ptrdiff_t>(pick));
      r.admit_time = clock;
      r.state = r.prefill_chunks.empty() ? RequestState::Decode : RequestState::Prefill;
      metrics.requests[index_of(&r)].admit = clock;
      active.push_back(&r);
    }
    if (active.empty()) {
      if (terminal == requests.size()) break;
      HYBRIMOE_ASSERT(next_arrival < requests.size(), "serve loop stalled");
      clock = std::max(clock, requests[next_arrival].spec.arrival_time);
      continue;
    }

    Request* candidate = nullptr;
    for (Request* r : active) {
      if (r->state == RequestState::Prefill || r->state == RequestState::Preempted) {
        candidate = r;
        break;
      }
    }
    bool defer = false;
    if (options.preemption && candidate != nullptr && est_prefill > 0.0 &&
        est_decode > 0.0 && est_decode < est_prefill &&
        candidate->preempt_streak < options.max_consecutive_preemptions) {
      for (const Request* d : active) {
        if (d->state != RequestState::Decode) continue;
        if (!(d->spec.priority > candidate->spec.priority)) continue;
        const TierPolicy& tier = tier_of(d);
        if (tier.tbt_slo <= 0.0) continue;
        if (d->prefill_chunks.empty() && d->next_step == 0) continue;
        if ((clock - d->last_token_time) + est_prefill > tier.tbt_slo) {
          defer = true;
          break;
        }
      }
    }
    if (candidate != nullptr) {
      if (defer) {
        if (candidate->state == RequestState::Prefill) candidate->preempt(clock);
        ++candidate->preempt_streak;
        metrics.requests[index_of(candidate)].preemptions = candidate->preemptions;
      } else if (candidate->state == RequestState::Preempted) {
        candidate->resume(clock);
      }
    }

    parts.clear();
    decoding.clear();
    Request* prefilling = nullptr;
    std::size_t prefill_tokens = 0;
    std::size_t decode_tokens = 0;
    for (Request* r : active) {
      if (r->state == RequestState::Prefill) {
        if (r != candidate || defer || prefilling != nullptr) continue;
        prefilling = r;
        const workload::ForwardTrace& chunk = r->prefill_chunks[r->next_chunk].forward;
        parts.push_back(&chunk);
        prefill_tokens += chunk.tokens;
      } else if (r->state == RequestState::Decode) {
        const workload::ForwardTrace& step = r->decode.steps[r->next_step];
        parts.push_back(&step);
        decode_tokens += step.tokens;
        decoding.push_back(r);
      }
    }
    HYBRIMOE_ASSERT(!parts.empty(), "composed an empty step");
    const sched::Stage stage = sched::dominant_stage(prefill_tokens, decode_tokens);
    if (!decoding.empty()) any_decode = true;

    double latency;
    if (parts.size() == 1) {
      latency = engine.run_step(*parts.front(), stage, steps);
    } else {
      const workload::ForwardTrace merged = workload::merge_forward_traces(parts);
      latency = engine.run_step(merged, stage, steps);
    }
    steps.per_forward.push_back(latency);
    steps.total_latency += latency;
    steps.tokens += prefill_tokens + decode_tokens;
    clock += latency;
    if (prefilling != nullptr) {
      est_prefill = latency;
    } else {
      est_decode = latency;
    }

    if (prefilling != nullptr) {
      ++prefilling->next_chunk;
      if (prefilling->next_chunk == prefilling->prefill_chunks.size()) {
        RequestMetrics& m = metrics.requests[index_of(prefilling)];
        prefilling->first_token_time = clock;
        prefilling->last_token_time = clock;
        m.first_token = clock;
        ++m.generated_tokens;
        if (prefilling->decode.num_steps() > 0) {
          prefilling->state = RequestState::Decode;
        } else {
          prefilling->state = RequestState::Finished;
          prefilling->finish_time = clock;
          m.finish = clock;
          ++terminal;
        }
      }
    }
    for (Request* r : decoding) {
      RequestMetrics& m = metrics.requests[index_of(r)];
      if (r->prefill_chunks.empty() && r->next_step == 0) {
        r->first_token_time = clock;
        m.first_token = clock;
      } else {
        m.tbt.push_back(clock - r->last_token_time);
      }
      r->last_token_time = clock;
      ++m.generated_tokens;
      ++r->next_step;
      if (r->next_step == r->decode.num_steps()) {
        r->state = RequestState::Finished;
        r->finish_time = clock;
        m.finish = clock;
        ++terminal;
      }
    }
    std::erase_if(active,
                  [](const Request* r) { return r->state == RequestState::Finished; });
  }

  metrics.makespan = clock;
  steps.stage = any_decode ? sched::Stage::Decode : sched::Stage::Prefill;
  cache::CacheStats stats = engine.device_cache(0).stats();
  stats.hits += steps.cache.hits;
  steps.cache = stats;

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    if (r.state == RequestState::Rejected) continue;
    metrics.requests[i].preemptions = r.preemptions;
  }
  return metrics;
}

ExperimentSpec tiny_spec(std::uint64_t seed = 91) {
  ExperimentSpec spec;
  spec.model = moe::ModelConfig::tiny(4, 8, 2);
  spec.machine = hw::MachineProfile::unit_test_machine();
  spec.cache_ratio = 0.25;
  spec.trace.seed = seed;
  spec.warmup_steps = 8;
  return spec;
}

/// Exact ServeMetrics comparison — EXPECT_EQ on doubles is deliberate: the
/// contract is bit-identity, not tolerance.
void expect_identical(const ServeMetrics& event, const ServeMetrics& reference) {
  ASSERT_EQ(event.requests.size(), reference.requests.size());
  for (std::size_t i = 0; i < event.requests.size(); ++i) {
    const RequestMetrics& a = event.requests[i];
    const RequestMetrics& b = reference.requests[i];
    EXPECT_EQ(a.id, b.id) << "request " << i;
    EXPECT_EQ(a.rejected, b.rejected) << "request " << i;
    EXPECT_EQ(a.arrival, b.arrival) << "request " << i;
    EXPECT_EQ(a.admit, b.admit) << "request " << i;
    EXPECT_EQ(a.first_token, b.first_token) << "request " << i;
    EXPECT_EQ(a.finish, b.finish) << "request " << i;
    EXPECT_EQ(a.generated_tokens, b.generated_tokens) << "request " << i;
    EXPECT_EQ(a.preemptions, b.preemptions) << "request " << i;
    EXPECT_EQ(a.tbt, b.tbt) << "request " << i;
  }
  EXPECT_EQ(event.makespan, reference.makespan);
  EXPECT_EQ(event.steps.per_forward, reference.steps.per_forward);
  EXPECT_EQ(event.steps.total_latency, reference.steps.total_latency);
  EXPECT_EQ(event.steps.tokens, reference.steps.tokens);
  EXPECT_EQ(event.steps.transfers, reference.steps.transfers);
  EXPECT_EQ(event.steps.prefetches, reference.steps.prefetches);
  EXPECT_EQ(event.steps.maintenance, reference.steps.maintenance);
  EXPECT_EQ(event.steps.cache.hits, reference.steps.cache.hits);
  EXPECT_EQ(event.steps.cache.misses, reference.steps.cache.misses);
  EXPECT_EQ(event.steps.stage, reference.steps.stage);
}

void expect_engines_agree(const workload::RequestStreamParams& params,
                          const ServeOptions& options) {
  const auto specs = workload::generate_request_stream(params);
  ExperimentHarness harness(tiny_spec());
  const auto requests = harness.materialize(specs, options.max_prefill_chunk);

  auto reference_engine = harness.build(preset_spec(Framework::HybriMoE));
  const auto reference =
      reference_step_loop_run(*reference_engine, requests, options);

  ServeEngine event_engine(harness.build(preset_spec(Framework::HybriMoE)));
  const auto event = event_engine.run(requests, options);

  expect_identical(event, reference);
}

workload::RequestStreamParams base_stream(double rate) {
  workload::RequestStreamParams p;
  p.num_requests = 24;
  p.arrival_rate = rate;
  p.prompt_tokens_min = 3;
  p.prompt_tokens_max = 12;
  p.decode_tokens_min = 2;
  p.decode_tokens_max = 6;
  p.seed = 17;
  return p;
}

TEST(ServeEventEquivalenceTest, SingleTierFifoStream) {
  expect_engines_agree(base_stream(4.0), ServeOptions{});
}

TEST(ServeEventEquivalenceTest, ChunkedPrefillsUnderTightBatchCap) {
  ServeOptions options;
  options.max_batch = 3;
  options.max_prefill_chunk = 4;
  expect_engines_agree(base_stream(8.0), options);
}

TEST(ServeEventEquivalenceTest, BurstArrivals) {
  auto params = base_stream(16.0);
  params.process = workload::ArrivalProcess::Burst;
  params.burst_size = 6;
  expect_engines_agree(params, ServeOptions{});
}

TEST(ServeEventEquivalenceTest, DiurnalArrivals) {
  auto params = base_stream(8.0);
  params.process = workload::ArrivalProcess::Diurnal;
  params.diurnal_period = 2.0;
  params.diurnal_amplitude = 0.8;
  expect_engines_agree(params, ServeOptions{});
}

TEST(ServeEventEquivalenceTest, PriorityTiersWithPreemptionAndSlos) {
  auto params = base_stream(32.0);
  params.vip_fraction = 0.25;
  params.best_effort_fraction = 0.25;
  ServeOptions options;
  options.max_prefill_chunk = 4;
  options.priority_admission = true;
  options.preemption = true;
  options.tiers[workload::priority_index(workload::Priority::Vip)].tbt_slo = 0.05;
  expect_engines_agree(params, options);
}

TEST(ServeEventEquivalenceTest, AdmissionControlRejectionPaths) {
  auto params = base_stream(64.0);
  params.vip_fraction = 0.25;
  params.best_effort_fraction = 0.5;
  ServeOptions options;
  options.max_batch = 2;
  options.priority_admission = true;
  options.max_context_tokens = 16;  // rejects the longest requests outright
  auto& best_effort =
      options.tiers[workload::priority_index(workload::Priority::BestEffort)];
  best_effort.ttft_deadline = 0.5;
  best_effort.queue_capacity = 3;
  expect_engines_agree(params, options);
}

}  // namespace
}  // namespace hybrimoe::runtime
