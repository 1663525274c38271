#include "runtime/engine.hpp"

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>

#include "util/assert.hpp"

namespace hybrimoe::runtime {

namespace {

/// Where an expert lives during one step, by one rule: the step's staged
/// transient buffers first, then the available device caches in topology
/// order. Prefill stages its prefetches in transient GPU buffers until their
/// layer reads them (cache inserts would evict seeded entries of upcoming
/// layers for no reuse: the paper's Table III has no prefill "+Caching" row).
/// A lost device's cache is emptied on loss, so skipping it changes nothing.
class Residency {
 public:
  Residency(const std::vector<std::unique_ptr<cache::ExpertCache>>& caches,
            const hw::CostModel& costs)
      : caches_(caches), costs_(costs) {}
  /// Device health (faults apply between steps): a lost accelerator holds
  /// nothing and is never an upload target.
  [[nodiscard]] bool available(std::size_t accel) const {
    return costs_.accelerator_available(accel);
  }

  /// The accelerator holding `id`, if any.
  [[nodiscard]] std::optional<std::size_t> find(moe::ExpertId id) const {
    if (staged_.contains(id)) return staged_on_.get(id);
    for (std::size_t a = 0; a < caches_.size(); ++a)
      if (available(a) && caches_[a]->probe(id)) return a;
    return std::nullopt;
  }

  /// Stages `id` in the buffer of `accel`; false when a copy is already staged.
  bool stage(moe::ExpertId id, std::size_t accel) {
    if (!staged_.insert(id)) return false;
    staged_on_.at(id) = static_cast<std::uint8_t>(accel);
    return true;
  }
  /// Frees the staged copy of `id` once its layer reads it; false when none.
  bool consume(moe::ExpertId id) { return staged_.erase(id); }

  /// What the prefetcher cannot see through the primary cache — staged
  /// copies and the other devices' residents — in the layers after `layer`,
  /// the only ones it plans for. Null when there are none.
  const std::unordered_set<moe::ExpertId>* beyond_primary(std::size_t layer) {
    elsewhere_.clear();
    const auto keep_later = [&](std::size_t l, std::size_t w, std::uint64_t bits) {
      if (l > layer)
        cache::ExpertBitset::for_each_bit(
            l, w, bits, [&](moe::ExpertId id) { elsewhere_.insert(id); });
    };
    staged_.for_each_word(keep_later);
    for (std::size_t a = 1; a < caches_.size(); ++a)
      if (available(a)) caches_[a]->resident_set().for_each_word(keep_later);
    return elsewhere_.empty() ? nullptr : &elsewhere_;
  }

 private:
  const std::vector<std::unique_ptr<cache::ExpertCache>>& caches_;
  const hw::CostModel& costs_;
  cache::ExpertBitset staged_;
  cache::ExpertTable<std::uint8_t> staged_on_;  ///< the link that staged each copy
  std::unordered_set<moe::ExpertId> elsewhere_;  ///< reused across layers
};

/// One forward pass, run layer by layer in named phases: resolve residency,
/// schedule, stage uploads (prefetch), maintain the caches, execute.
class Step {
 public:
  Step(EngineComponents& components, const hw::CostModel& costs, sched::Stage stage,
       StageMetrics& metrics)
      : c_(components), costs_(costs), stage_(stage), metrics_(metrics),
        prefill_(stage == sched::Stage::Prefill), residency_(components.caches, costs),
        link_carry_(components.caches.size(), 0.0), executor_(components.executor.get()),
        threaded_(components.execution_mode != exec::ExecutionMode::Simulated) {
    metrics.device_transfers.resize(link_carry_.size());
    // Threaded/Performance run plans on real threads (Performance unpaced);
    // Simulated runs the reference path so every mode yields comparable digests.
    if (executor_ != nullptr)
      executor_->begin_step(components.execution_mode != exec::ExecutionMode::Performance);
  }
  Step(const Step&) = delete;  // one owner closes the executor's step
  /// Aborts an unfinished step: a shared executor is never left mid-step.
  ~Step() { if (executor_ != nullptr) executor_->abort_step(); }

  void layer(const workload::ForwardTrace& forward, std::size_t l) {
    const auto layer = static_cast<std::uint16_t>(l);
    const moe::LayerRouting& routing = forward.layers[l];
    // Dense part (attention + shared experts): the routed phase overlaps it
    // (Fig. 5's "Shared Expert" block), so it is the accelerators' start offset.
    const double t_attn = costs_.attention_time(forward.tokens);
    const double t_shared = costs_.shared_experts_time(forward.tokens);
    const double dense = t_attn + t_shared;
    metrics_.attention_time += t_attn;
    metrics_.shared_time += t_shared;
    latency_ += c_.per_layer_overhead;
    // Score feed (Eq. 3 input): the gate runs before the cache decisions. The
    // primary cache suffices — per-device MRS instances share the score table.
    if (c_.update_policy_scores)
      c_.caches[0]->update_scores(layer, routing.scores, costs_.model().top_k);

    resolve(layer, routing);
    if (demands_.empty()) {
      latency_ += dense;
      for (double& carry : link_carry_) carry = std::max(0.0, carry - dense);
      if (threaded_) executor_->pace_dense(c_.per_layer_overhead + dense);
      return;
    }
    const sched::LayerPlan plan = schedule(layer, dense);
    if (c_.prefetcher != nullptr && c_.dynamic_cache_inserts) prefetch(forward, l, plan);
    if (c_.cache_maintenance && c_.dynamic_cache_inserts && !prefill_) maintain(plan);
    execute(plan);
  }

  /// Ends the step; returns its modeled latency. Staged hits join cache hits.
  double finish() {
    metrics_.cache.hits += staged_hits_;
    if (exec::HybridExecutor* executor = std::exchange(executor_, nullptr)) {
      const exec::StepResult step = executor->end_step();
      metrics_.measured_latency += step.measured;
      metrics_.exec_digest = exec::hash_u64(metrics_.exec_digest, step.digest);
    }
    return latency_;
  }

 private:
  /// A hit is charged to the cache holding the expert (a staged copy is
  /// consumed instead), a miss to the primary cache.
  void resolve(std::uint16_t layer, const moe::LayerRouting& routing) {
    demands_.clear();
    activated_.clear();
    for (std::uint32_t e = 0; e < routing.loads.size(); ++e) {
      if (routing.loads[e] == 0) continue;
      const moe::ExpertId id{layer, static_cast<std::uint16_t>(e)};
      const std::optional<std::size_t> on = residency_.find(id);
      if (!on.has_value()) {
        c_.caches[0]->record_miss(id);
      } else if (residency_.consume(id)) {
        ++staged_hits_;
      } else {
        (void)c_.caches[*on]->lookup(id);
      }
      demands_.push_back({id.expert, routing.loads[e], on.has_value(),
                          sched::accelerator_device(on.value_or(0))});
      activated_.push_back(id);
    }
  }

  /// On-demand transfers become residents of the pulling device
  /// (policy-managed admission) in decode; prefill streams them.
  sched::LayerPlan schedule(std::uint16_t layer, double dense) {
    sched::LayerPlan plan = c_.scheduler->schedule(layer, stage_, demands_, costs_, dense,
                                                   link_carry_[0], link_carry_);
    latency_ += plan.makespan;  // includes the dense phase (gpu_offset)
    metrics_.moe_time += plan.makespan - dense;
    metrics_.cpu_busy += plan.cpu_busy;
    metrics_.gpu_busy += plan.gpu_busy;
    metrics_.pcie_busy += plan.pcie_busy;
    for (const auto& t : plan.tasks) {
      if (!t.transferred) continue;
      ++metrics_.transfers;
      ++metrics_.device_transfers[t.device.accel_index()];
      if (c_.dynamic_cache_inserts && !prefill_)
        (void)c_.caches[t.device.accel_index()]->insert(t.expert, activated_);
    }
    // Speculative uploads may *start* while some link is free before the
    // layer ends; each occupies its link for one expert-transfer time, and
    // the last ones may spill into the next layer (link_carry_).
    HYBRIMOE_REQUIRE(plan.link_ends.size() == link_carry_.size(),
                     "scheduler plans must carry one link window per accelerator");
    link_cursor_ = plan.link_ends;
    async_copies_.clear();
    return plan;
  }

  /// Prefetching for upcoming layers. A decode upload one device rejects
  /// falls through to the next link, so a full device never starves the
  /// rest; a rejected staging means the expert is staged already.
  void prefetch(const workload::ForwardTrace& forward, std::size_t l,
                const sched::LayerPlan& plan) {
    // Idle-window sum; a backed-up link adds zero rather than cancel another's
    // idle time (single link: the same decisions, none for a budget <= 0).
    double budget = 0.0;
    for (const double cursor : link_cursor_) budget += std::max(0.0, plan.makespan - cursor);
    const auto decisions = c_.prefetcher->plan(forward, l, stage_, *c_.caches[0], costs_,
                                               budget, residency_.beyond_primary(l));
    for (const auto& d : decisions)
      for (const std::size_t a : links_by_cursor())
        if (upload(d.expert, a, metrics_.prefetches) || prefill_) break;
  }

  /// Score-driven maintenance: retain this layer's missed high-priority
  /// experts for the next iteration while some link is idle (decode only).
  void maintain(const sched::LayerPlan& plan) {
    std::vector<moe::ExpertId> missed;
    for (std::size_t i = 0; i < demands_.size(); ++i)
      if (!demands_[i].cached && !residency_.find(activated_[i]).has_value())
        missed.push_back(activated_[i]);
    const cache::CachePolicy& policy = c_.caches[0]->policy();
    std::sort(missed.begin(), missed.end(), [&](moe::ExpertId a, moe::ExpertId b) {
      return policy.priority(a) > policy.priority(b);
    });
    // A device whose victim outranks the candidate refuses it and yields to
    // the next link. Candidates are priority-descending, so once one is
    // refused by every idle link's device the rest would be too: stop then.
    for (const auto& id : missed) {
      bool placed = false;
      for (const std::size_t a : links_by_cursor()) {
        if (link_cursor_[a] >= plan.makespan) break;  // rest are busier still
        cache::ExpertCache& target = *c_.caches[a];
        if (target.full()) {
          const auto victim = target.peek_victim();
          if (!victim.has_value() ||
              target.policy().priority(id) <= target.policy().priority(*victim))
            continue;
        }
        placed = upload(id, a, metrics_.maintenance);
        break;  // insert attempted on the chosen device either way
      }
      if (!placed) break;
    }
  }

  /// Runs the plan on real threads (speculative copies keep draining past
  /// the call), or computes the reference outputs only when simulated.
  void execute(const sched::LayerPlan& plan) {
    if (threaded_) {
      (void)executor_->execute_layer(plan, c_.per_layer_overhead, async_copies_);
    } else if (executor_ != nullptr) {
      (void)executor_->execute_layer_reference(plan);
    }
    for (std::size_t a = 0; a < link_carry_.size(); ++a)
      link_carry_[a] = std::max(0.0, link_cursor_[a] - plan.makespan);
  }

  /// Upload order: available links, least-loaded first, lowest index on ties.
  [[nodiscard]] std::vector<std::size_t> links_by_cursor() const {
    std::vector<std::size_t> order;
    for (std::size_t a = 0; a < link_cursor_.size(); ++a)
      if (residency_.available(a)) order.push_back(a);
    std::stable_sort(order.begin(), order.end(), [this](auto a, auto b) {
      return link_cursor_[a] < link_cursor_[b];
    });
    return order;
  }

  /// Uploads `id` over link `a` (staged in prefill, inserted in decode); a
  /// landed one is counted in `kind`, charged to the link and queued for it.
  bool upload(moe::ExpertId id, std::size_t a, std::size_t& kind) {
    const bool landed = prefill_ ? residency_.stage(id, a) : c_.caches[a]->insert(id).inserted;
    if (landed) {
      const double xfer = costs_.transfer_time(a);
      ++kind;
      ++metrics_.device_transfers[a];
      metrics_.pcie_busy += xfer;
      link_cursor_[a] += xfer;
      async_copies_.push_back({id, a, xfer});
    }
    return landed;
  }

  EngineComponents& c_;
  const hw::CostModel& costs_;
  const sched::Stage stage_;
  StageMetrics& metrics_;
  const bool prefill_;
  Residency residency_;
  std::vector<double> link_carry_;  ///< link work spilling into the next layer
  exec::HybridExecutor* executor_;
  const bool threaded_;
  double latency_ = 0.0;
  std::size_t staged_hits_ = 0;
  // The current layer's state.
  std::vector<sched::ExpertDemand> demands_;
  std::vector<moe::ExpertId> activated_;
  std::vector<double> link_cursor_;            ///< when each link frees up
  std::vector<exec::AsyncCopy> async_copies_;  ///< speculative uploads, in issue order
};

}  // namespace

OffloadEngine::OffloadEngine(EngineComponents components, const hw::CostModel& costs)
    : components_(std::move(components)), costs_(costs) {
  HYBRIMOE_REQUIRE(components_.scheduler != nullptr, "engine requires a scheduler");
  HYBRIMOE_REQUIRE(!components_.name.empty(), "engine requires a name");
  HYBRIMOE_REQUIRE(components_.execution_mode == exec::ExecutionMode::Simulated ||
                       components_.executor != nullptr,
                   "threaded execution requires an executor");
  HYBRIMOE_REQUIRE(components_.caches.size() == costs.num_accelerators(),
                   "engine requires one expert cache per accelerator of the topology");
  for (const auto& cache : components_.caches)
    HYBRIMOE_REQUIRE(cache != nullptr, "engine requires a cache for every device");
}

cache::CacheStats OffloadEngine::aggregate_cache_stats() const {
  cache::CacheStats total;
  for (const auto& cache : components_.caches) {
    const cache::CacheStats& s = cache->stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.insertions += s.insertions;
    total.evictions += s.evictions;
    total.rejected_insertions += s.rejected_insertions;
  }
  return total;
}

void OffloadEngine::reset_cache_stats() {
  for (const auto& cache : components_.caches) cache->reset_stats();
}

void OffloadEngine::seed_cache(std::span<const moe::ExpertId> experts, bool pinned) {
  const auto& caches = components_.caches;
  const std::size_t n = caches.size();
  std::size_t next = 0;
  for (const auto& id : experts) {
    const bool any_space = std::any_of(caches.begin(), caches.end(),
                                       [](const auto& c) { return !c->full(); });
    if (!any_space) break;
    while (caches[next % n]->full()) ++next;
    cache::ExpertCache& cache = *caches[next % n];
    ++next;
    if (pinned) {
      cache.insert_pinned(id);
    } else {
      (void)cache.insert(id);
    }
  }
}

double OffloadEngine::run_step(const workload::ForwardTrace& forward,
                               sched::Stage stage, StageMetrics& metrics) {
  HYBRIMOE_REQUIRE(forward.num_layers() == costs_.model().num_layers,
                   "trace layer count does not match the model");
  HYBRIMOE_REQUIRE(forward.tokens > 0, "forward pass with no tokens");
  Step step(components_, costs_, stage, metrics);
  for (std::size_t l = 0; l < forward.num_layers(); ++l) step.layer(forward, l);
  return step.finish();
}

StageMetrics OffloadEngine::run_prefill(const workload::PrefillTrace& trace) {
  return run_forwards(sched::Stage::Prefill, trace.prompt_tokens,
                      std::span(&trace.forward, 1));
}

StageMetrics OffloadEngine::run_decode(const workload::DecodeTrace& trace) {
  HYBRIMOE_REQUIRE(trace.num_steps() > 0, "decode trace is empty");
  return run_forwards(sched::Stage::Decode, trace.num_steps(), trace.steps);
}

StageMetrics OffloadEngine::run_forwards(sched::Stage stage, std::size_t tokens,
                                         std::span<const workload::ForwardTrace> forwards) {
  StageMetrics metrics;
  metrics.stage = stage;
  metrics.tokens = tokens;
  reset_cache_stats();
  for (const auto& forward : forwards) {
    const double latency = run_step(forward, stage, metrics);
    metrics.per_forward.push_back(latency);
    metrics.total_latency += latency;
  }
  // run_step accumulated transient-buffer hits into metrics.cache.hits;
  // merge them with the device caches' own counters.
  cache::CacheStats stats = aggregate_cache_stats();
  stats.hits += metrics.cache.hits;
  metrics.cache = stats;
  return metrics;
}

}  // namespace hybrimoe::runtime
