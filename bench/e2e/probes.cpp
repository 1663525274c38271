#include "probes.hpp"

#include <memory>
#include <string>

#include "runtime/stack_registry.hpp"
#include "sched/plan.hpp"

namespace hybrimoe::e2e {

namespace {

constexpr const char* kTimedPrefix = "timed-";

/// Times `fn` into `span` (and into `also`, when given) and returns its
/// result.
template <class Fn>
decltype(auto) timed(Span& span, Fn&& fn, Span* also = nullptr) {
  struct Stop {
    Span& span;
    Span* also;
    Clock::time_point start = Clock::now();
    ~Stop() {
      const double s = seconds_between(start, Clock::now());
      ++span.calls;
      span.seconds += s;
      if (also != nullptr) {
        ++also->calls;
        also->seconds += s;
      }
    }
  } stop{span, also};
  return fn();
}

class TimedScheduler final : public sched::LayerScheduler {
 public:
  TimedScheduler(std::unique_ptr<sched::LayerScheduler> inner, LayerCounters& counters)
      : inner_(std::move(inner)), counters_(counters) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] sched::SimOptions impact_options() const override {
    return inner_->impact_options();
  }

  [[nodiscard]] sched::LayerPlan schedule(std::uint16_t layer, sched::Stage stage,
                                          std::span<const sched::ExpertDemand> demands,
                                          const hw::CostModel& costs, double gpu_busy_until,
                                          double pcie_busy_until,
                                          std::span<const double> link_busy) override {
    // A decode prefetch of the previous layer that was not inserted by now
    // was refused by the cache; later inserts of it are on-demand loads.
    counters_.planned.clear();
    sched::LayerPlan plan = timed(counters_.schedule, [&] {
      return inner_->schedule(layer, stage, demands, costs, gpu_busy_until,
                              pcie_busy_until, link_busy);
    });
    const Clock::time_point probe_start = Clock::now();
    counters_.tasks += plan.tasks.size();
    for (const sched::ExpertTask& task : plan.tasks) {
      counters_.cpu_tasks += task.device.is_cpu() ? 1 : 0;
      counters_.on_demand += task.transferred ? 1 : 0;
    }
    if (!sched::validate_plan(plan, demands).empty()) ++counters_.invalid_plans;
    counters_.probe_seconds += seconds_between(probe_start, Clock::now());
    return plan;
  }

 private:
  std::unique_ptr<sched::LayerScheduler> inner_;
  LayerCounters& counters_;
};

class TimedPrefetcher final : public core::Prefetcher {
 public:
  TimedPrefetcher(std::unique_ptr<core::Prefetcher> inner, LayerCounters& counters)
      : inner_(std::move(inner)), counters_(counters) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] std::vector<core::PrefetchDecision> plan(
      const workload::ForwardTrace& trace, std::size_t layer, sched::Stage stage,
      const cache::ExpertCache& cache, const hw::CostModel& costs, double budget_seconds,
      const std::unordered_set<moe::ExpertId>* extra_resident) override {
    std::vector<core::PrefetchDecision> decisions = timed(counters_.plan, [&] {
      return inner_->plan(trace, layer, stage, cache, costs, budget_seconds,
                          extra_resident);
    });
    const Clock::time_point probe_start = Clock::now();
    counters_.decisions += decisions.size();
    for (const core::PrefetchDecision& d : decisions) {
      if (stage == sched::Stage::Prefill) {
        counters_.prefetch_hits +=
            trace.layers[d.expert.layer].loads[d.expert.expert] > 0 ? 1 : 0;
      } else {
        counters_.planned.insert(d.expert);
      }
    }
    counters_.probe_seconds += seconds_between(probe_start, Clock::now());
    return decisions;
  }

 private:
  std::unique_ptr<core::Prefetcher> inner_;
  LayerCounters& counters_;
};

class TimedPolicy final : public cache::CachePolicy {
 public:
  TimedPolicy(std::unique_ptr<cache::CachePolicy> inner, LayerCounters& counters)
      : inner_(std::move(inner)), counters_(counters) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  void on_reference(moe::ExpertId id) override {
    timed(counters_.policy, [&] { inner_->on_reference(id); });
  }
  void on_hit(moe::ExpertId id) override {
    timed(counters_.policy, [&] { inner_->on_hit(id); });
    counters_.prefetch_hits += counters_.resident.erase(id);
  }
  void on_insert(moe::ExpertId id) override {
    timed(counters_.policy, [&] { inner_->on_insert(id); });
    if (counters_.planned.erase(id) > 0) counters_.resident.insert(id);
  }
  void on_evict(moe::ExpertId id) override {
    timed(counters_.policy, [&] { inner_->on_evict(id); });
    counters_.resident.erase(id);
  }
  void on_scores(std::uint16_t layer, std::span<const float> scores,
                 std::size_t top_k) override {
    timed(counters_.scores, [&] { inner_->on_scores(layer, scores, top_k); },
          &counters_.policy);
  }
  [[nodiscard]] moe::ExpertId choose_victim(
      std::span<const moe::ExpertId> candidates) override {
    return timed(counters_.victim, [&] { return inner_->choose_victim(candidates); },
                 &counters_.policy);
  }
  [[nodiscard]] double priority(moe::ExpertId id) const override {
    return timed(counters_.policy, [&] { return inner_->priority(id); });
  }

 private:
  std::unique_ptr<cache::CachePolicy> inner_;
  LayerCounters& counters_;
};

}  // namespace

void register_timed_components(LayerCounters& counters) {
  LayerCounters* c = &counters;
  for (const std::string& key : runtime::scheduler_registry().names()) {
    runtime::scheduler_registry().add(
        kTimedPrefix + key, [c, key](const runtime::ComponentContext& ctx)
                                -> std::unique_ptr<sched::LayerScheduler> {
          return std::make_unique<TimedScheduler>(
              runtime::scheduler_registry().get(key)(ctx), *c);
        });
  }
  for (const std::string& key : runtime::cache_policy_registry().names()) {
    runtime::cache_policy_registry().add(
        kTimedPrefix + key, [c, key](const runtime::ComponentContext& ctx)
                                -> std::unique_ptr<cache::CachePolicy> {
          return std::make_unique<TimedPolicy>(
              runtime::cache_policy_registry().get(key)(ctx), *c);
        });
  }
  for (const std::string& key : runtime::prefetcher_registry().names()) {
    runtime::prefetcher_registry().add(
        kTimedPrefix + key, [c, key](const runtime::ComponentContext& ctx)
                                -> std::unique_ptr<core::Prefetcher> {
          auto inner = runtime::prefetcher_registry().get(key)(ctx);
          if (inner == nullptr) return nullptr;
          return std::make_unique<TimedPrefetcher>(std::move(inner), *c);
        });
  }
}

runtime::StackSpec timed_spec(runtime::StackSpec spec) {
  spec.scheduler.policy = kTimedPrefix + spec.scheduler.policy;
  spec.cache.policy = kTimedPrefix + spec.cache.policy;
  spec.prefetch.policy = kTimedPrefix + spec.prefetch.policy;
  return spec;
}

void StepTimer::transform_step(std::size_t, workload::ForwardTrace&) {
  step_open_ = true;
  open_ = Clock::now();
}

void StepTimer::on_sim_event(const serve_sim::Event&) {
  if (step_open_) {
    steps_.push_back(seconds_between(open_, Clock::now()));
    step_open_ = false;
  }
  ++events_;
}

void StepTimer::after_step(const runtime::StepInfo& info, const runtime::StageMetrics&) {
  batch_total_ += info.active_requests;
  ++batches_;
}

double StepTimer::batch_mean() const noexcept {
  return batches_ == 0 ? 0.0
                       : static_cast<double>(batch_total_) / static_cast<double>(batches_);
}

}  // namespace hybrimoe::e2e
