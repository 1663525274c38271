#include "runtime/engine.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/assert.hpp"

namespace hybrimoe::runtime {

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
  const auto& model = costs_.model();
  HYBRIMOE_REQUIRE(forward.num_layers() == model.num_layers,
                   "trace layer count does not match the model");
  HYBRIMOE_REQUIRE(forward.tokens > 0, "forward pass with no tokens");

  const auto& caches = components_.caches;
  const std::size_t num_devices = caches.size();
  std::vector<double> xfer(num_devices);
  for (std::size_t a = 0; a < num_devices; ++a) xfer[a] = costs_.transfer_time(a);
  if (metrics.device_transfers.size() != num_devices)
    metrics.device_transfers.resize(num_devices, 0);
  // Device health snapshot for this step: a lost accelerator is never probed
  // for residency and never a transfer target (scenario device_loss).
  std::vector<std::uint8_t> available(num_devices, 1);
  for (std::size_t a = 0; a < num_devices; ++a)
    available[a] = costs_.accelerator_available(a) ? 1 : 0;
  double latency = 0.0;

  // Execution backend (optional): Threaded/Performance lower every plan onto
  // real threads (Performance with pacing dropped); Simulated-with-executor
  // runs the single-threaded reference so all modes produce comparable
  // output digests.
  exec::HybridExecutor* executor = components_.executor.get();
  const bool threaded =
      components_.execution_mode != exec::ExecutionMode::Simulated;
  if (executor != nullptr)
    executor->begin_step(components_.execution_mode !=
                         exec::ExecutionMode::Performance);
  // Close the step on any exception below: a (possibly shared) executor
  // left mid-step would make every later begin_step throw, masking the
  // original error. Disarmed before the normal end_step.
  struct StepGuard {
    exec::HybridExecutor* executor;
    ~StepGuard() {
      if (executor != nullptr) executor->abort_step();
    }
  } step_guard{executor};
  // Link work (prefetches) still in flight when a layer ends spills into the
  // next layer's occupancy of that link — links are asynchronous across
  // layers, one carry per accelerator link.
  std::vector<double> link_carry(num_devices, 0.0);

  // During prefill every layer is visited exactly once, so streamed experts
  // go to transient GPU buffers: on-demand uploads are discarded after use
  // and prefetched experts live only until their target layer consumes them.
  // Inserting them into the cache would churn out seeded entries of upcoming
  // layers for zero reuse (the reason the paper's Table III has no prefill
  // "+Caching" row). Decode inserts into the managed caches as usual. The
  // map value records which device's transient buffer holds the copy.
  const bool is_prefill = stage == sched::Stage::Prefill;
  std::unordered_map<moe::ExpertId, std::uint8_t> transient;
  std::size_t transient_hits = 0;

  for (std::size_t l = 0; l < forward.num_layers(); ++l) {
    const auto layer = static_cast<std::uint16_t>(l);
    const moe::LayerRouting& routing = forward.layers[l];

    // Dense part: attention + shared experts, resident on the accelerators.
    // The routed phase overlaps it — the CPU starts misses and the links
    // start transfers while the accelerators finish the dense work (Fig. 5's
    // "Shared Expert" block), so it enters the plan as the device start
    // offset.
    const double t_attn = costs_.attention_time(forward.tokens);
    const double t_shared = costs_.shared_experts_time(forward.tokens);
    const double dense = t_attn + t_shared;
    metrics.attention_time += t_attn;
    metrics.shared_time += t_shared;
    const double overhead = components_.per_layer_overhead;
    latency += overhead;

    // Score feed (Eq. 3 input) before this layer's lookups, mirroring the
    // real pipeline: the gate runs first, then cache decisions are made.
    // One feed to the primary cache suffices — per-device MRS instances
    // share the score table (MrsPolicy::share_table).
    if (components_.update_policy_scores)
      caches[0]->update_scores(layer, routing.scores, model.top_k);

    // Cache lookups for the activated experts, then the demands. Residency
    // is resolved across every device cache; the miss is charged to the
    // primary cache (aggregate stats are what the metrics report).
    std::vector<sched::ExpertDemand> demands;
    std::vector<moe::ExpertId> activated_ids;
    for (std::uint32_t e = 0; e < routing.loads.size(); ++e) {
      if (routing.loads[e] == 0) continue;
      const moe::ExpertId id{layer, static_cast<std::uint16_t>(e)};
      bool hit = false;
      sched::DeviceId resident_on = sched::kGpuDevice;
      if (const auto it = transient.find(id); it != transient.end()) {
        hit = true;  // consumed prefetch buffer
        resident_on = sched::accelerator_device(it->second);
        transient.erase(it);
        ++transient_hits;
      } else {
        for (std::size_t a = 0; a < num_devices; ++a) {
          if (available[a] == 0) continue;
          if (caches[a]->probe(id)) {
            hit = true;
            resident_on = sched::accelerator_device(a);
            break;
          }
        }
        if (hit) {
          (void)caches[resident_on.accel_index()]->lookup(id);
        } else {
          caches[0]->record_miss(id);
        }
      }
      demands.push_back(
          {static_cast<std::uint16_t>(e), routing.loads[e], hit, resident_on});
      activated_ids.push_back(id);
    }
    if (demands.empty()) {
      latency += dense;
      for (double& carry : link_carry) carry = std::max(0.0, carry - dense);
      if (threaded) executor->pace_dense(overhead + dense);
      continue;
    }

    const sched::LayerPlan plan = components_.scheduler->schedule(
        layer, stage, demands, costs_, dense, link_carry[0], link_carry);
    latency += plan.makespan;  // includes the dense phase (gpu_offset)
    metrics.moe_time += plan.makespan - dense;
    metrics.cpu_busy += plan.cpu_busy;
    metrics.gpu_busy += plan.gpu_busy;
    metrics.pcie_busy += plan.pcie_busy;

    // On-demand transfers become residents of the device that pulled them
    // (policy-managed admission) in decode; prefill streams them through
    // transient buffers.
    for (const auto& t : plan.tasks) {
      if (!t.transferred) continue;
      ++metrics.transfers;
      ++metrics.device_transfers[t.device.accel_index()];
      if (components_.dynamic_cache_inserts && !is_prefill)
        (void)caches[t.device.accel_index()]->insert(t.expert, activated_ids);
    }

    // Speculative uploads may *start* any time some link is free before the
    // layer ends; the last ones may still be in flight when the next layer
    // begins (link_carry). Each started transfer occupies its link for one
    // expert-transfer time.
    HYBRIMOE_REQUIRE(plan.link_ends.size() == num_devices,
                     "scheduler plans must carry one link window per accelerator");
    std::vector<double> link_cursor = plan.link_ends;
    // Upload placement order: least-loaded link first (lowest index on
    // ties). An upload rejected by one device's cache falls through to the
    // next link, so a full or zero-capacity device never starves the rest.
    const auto links_by_cursor = [&link_cursor, &available] {
      std::vector<std::size_t> order;
      order.reserve(link_cursor.size());
      for (std::size_t a = 0; a < link_cursor.size(); ++a)
        if (available[a] != 0) order.push_back(a);
      std::stable_sort(order.begin(), order.end(), [&link_cursor](auto a, auto b) {
        return link_cursor[a] < link_cursor[b];
      });
      return order;
    };
    // Speculative uploads committed this layer (prefetch + maintenance), in
    // issue order with their target link — the execution backend replays
    // them on the link's copy thread behind the plan's on-demand transfers.
    std::vector<exec::AsyncCopy> async_copies;

    // Residency the prefetcher cannot see through the primary cache:
    // transient prefill buffers plus the extra devices' caches.
    const auto extra_resident = [&] {
      std::unordered_set<moe::ExpertId> extra;
      for (const auto& [id, dev] : transient) extra.insert(id);
      for (std::size_t a = 1; a < num_devices; ++a)
        for (const moe::ExpertId id : caches[a]->residents()) extra.insert(id);
      return extra;
    };

    // Impact-driven (or baseline) prefetching for upcoming layers.
    if (components_.prefetcher != nullptr && components_.dynamic_cache_inserts) {
      // Idle-window sum across links; a backed-up link contributes zero, it
      // must not cancel another link's genuine idle time. (Single-link:
      // clamping is decision-identical — the prefetcher plans nothing for
      // any budget <= 0.)
      double budget = 0.0;
      for (std::size_t a = 0; a < num_devices; ++a)
        budget += std::max(0.0, plan.makespan - link_cursor[a]);
      const auto resident_elsewhere = extra_resident();
      const auto decisions = components_.prefetcher->plan(
          forward, l, stage, *caches[0], costs_, budget, &resident_elsewhere);
      for (const auto& d : decisions) {
        bool uploaded = false;
        std::size_t placed_on = 0;
        for (const std::size_t a : links_by_cursor()) {
          uploaded = is_prefill ? transient
                                      .emplace(d.expert,
                                               static_cast<std::uint8_t>(a))
                                      .second
                                : caches[a]->insert(d.expert).inserted;
          if (uploaded) {
            placed_on = a;
            break;
          }
          // A transient-buffer rejection means the expert is already staged
          // — no other link would change that.
          if (is_prefill) break;
        }
        if (uploaded) {
          ++metrics.prefetches;
          ++metrics.device_transfers[placed_on];
          metrics.pcie_busy += xfer[placed_on];
          link_cursor[placed_on] += xfer[placed_on];
          async_copies.push_back({d.expert, placed_on, xfer[placed_on]});
        }
      }
    }

    // Score-driven maintenance: retain this layer's missed high-priority
    // experts for the next iteration while some link is still idle. This is
    // an inter-iteration technique — meaningless within one prefill forward.
    if (components_.cache_maintenance && components_.dynamic_cache_inserts &&
        !is_prefill) {
      std::vector<moe::ExpertId> missed;
      for (std::size_t i = 0; i < demands.size(); ++i) {
        if (demands[i].cached) continue;
        const auto resident = [&](const moe::ExpertId id) {
          for (std::size_t a = 0; a < num_devices; ++a)
            if (caches[a]->probe(id)) return true;
          return false;
        };
        if (!resident(activated_ids[i])) missed.push_back(activated_ids[i]);
      }
      const cache::CachePolicy& policy = caches[0]->policy();
      std::sort(missed.begin(), missed.end(), [&](moe::ExpertId a, moe::ExpertId b) {
        return policy.priority(a) > policy.priority(b);
      });
      for (const auto& id : missed) {
        // Try links least-loaded first; a device whose policy refuses the
        // candidate (its victim outranks it) yields to the next device
        // rather than ending maintenance for the layer. Candidates are
        // priority-descending, so once one is refused by *every* idle
        // link's device, the rest would be too — stop then.
        bool placed = false;
        for (const std::size_t a : links_by_cursor()) {
          if (link_cursor[a] >= plan.makespan) break;  // rest are busier still
          cache::ExpertCache& target = *caches[a];
          if (target.full()) {
            const auto victim = target.peek_victim();
            if (!victim.has_value() ||
                target.policy().priority(id) <= target.policy().priority(*victim))
              continue;  // this device refuses; try the next link
          }
          if (target.insert(id).inserted) {
            ++metrics.maintenance;
            ++metrics.device_transfers[a];
            metrics.pcie_busy += xfer[a];
            link_cursor[a] += xfer[a];
            async_copies.push_back({id, a, xfer[a]});
            placed = true;
          }
          break;  // insert attempted on the chosen device either way
        }
        if (!placed) break;  // all links busy, or no device admits this one
      }
    }

    // All cache bookkeeping for the layer is done — now execute the plan.
    // Threaded mode runs it for real (the call returns when every compute
    // task finished; speculative copies keep draining asynchronously);
    // simulated-with-executor computes the reference outputs only.
    if (executor != nullptr) {
      if (threaded) {
        (void)executor->execute_layer(plan, overhead, async_copies);
      } else {
        (void)executor->execute_layer_reference(plan);
      }
    }

    for (std::size_t a = 0; a < num_devices; ++a)
      link_carry[a] = std::max(0.0, link_cursor[a] - plan.makespan);
  }
  metrics.cache.hits += transient_hits;  // prefetch-buffer hits count as hits
  if (executor != nullptr) {
    step_guard.executor = nullptr;
    const exec::StepResult step = executor->end_step();
    metrics.measured_latency += step.measured;
    metrics.exec_digest = exec::hash_u64(metrics.exec_digest, step.digest);
  }
  return latency;
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
