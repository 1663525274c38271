#include "sched/simulator.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>
#include <vector>

#include "util/assert.hpp"

namespace hybrimoe::sched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A pending expert inside the simulation.
struct Pending {
  std::uint16_t expert = 0;
  std::uint32_t load = 0;
  bool cached = false;       ///< resident before the layer started
  bool transferred = false;  ///< promoted over a link during this layer
  double arrival = 0.0;      ///< earliest accelerator start (transfer completion)
  double transfer_start = 0.0;
};

/// Simulation state: one clock per device and link plus the priority queues.
struct SimState {
  // Accelerator side, one queue per device: cached + transferred experts
  // awaiting compute, kept sorted by descending load (paper: high-load first).
  std::vector<std::vector<Pending>> accel_side;
  // CPU side: uncached experts, kept sorted by ascending load.
  std::vector<Pending> cpu_side;
  double cpu_t = 0.0;
  std::vector<double> accel_t;  ///< per-accelerator compute clock
  std::vector<double> link_t;   ///< per-link transfer clock
  bool cpu_used = false;        ///< warmup tracking
};

void insert_gpu_sorted(std::vector<Pending>& gpu_side, Pending p) {
  const auto pos = std::find_if(gpu_side.begin(), gpu_side.end(),
                                [&](const Pending& q) { return q.load < p.load; });
  gpu_side.insert(pos, p);
}

/// Total compute time of everything currently queued on accelerator `accel`.
double gpu_backlog(const std::vector<Pending>& gpu_side, const hw::CostModel& costs,
                   std::size_t accel) {
  double total = 0.0;
  for (const auto& p : gpu_side) total += costs.gpu_expert_time(p.load, accel);
  return total;
}

/// Total CPU compute time of the whole CPU queue (warm-path estimate).
double cpu_backlog(const std::vector<Pending>& cpu_side, const hw::CostModel& costs) {
  double total = 0.0;
  for (const auto& p : cpu_side) total += costs.cpu_expert_time(p.load, /*warm=*/true);
  return total;
}

}  // namespace

void SimOptions::validate() const {
  HYBRIMOE_REQUIRE(allow_cpu || allow_transfers,
                   "uncached experts need either CPU compute or transfers");
  HYBRIMOE_REQUIRE(gpu_busy_until >= 0.0, "gpu_busy_until must be non-negative");
  for (const double t : link_busy_until)
    HYBRIMOE_REQUIRE(t >= 0.0, "link_busy_until entries must be non-negative");
}

LayerPlan simulate_layer(std::uint16_t layer, Stage stage,
                         std::span<const ExpertDemand> demands,
                         const hw::CostModel& costs, const SimOptions& options) {
  options.validate();
  HYBRIMOE_REQUIRE(!demands.empty(), "simulate_layer with no demands");
  const std::size_t num_accels = costs.num_accelerators();
  HYBRIMOE_REQUIRE(options.link_busy_until.empty() ||
                       options.link_busy_until.size() == num_accels,
                   "link_busy_until must have one entry per accelerator");
  {
    const DeviceSet devices(num_accels);
    std::unordered_set<std::uint16_t> seen;
    for (const auto& d : demands) {
      HYBRIMOE_REQUIRE(d.load > 0, "expert demand with zero load");
      HYBRIMOE_REQUIRE(seen.insert(d.expert).second, "duplicate expert in demands");
      HYBRIMOE_REQUIRE(!d.cached ||
                           (d.cached_on.is_accelerator() && devices.contains(d.cached_on)),
                       "cached_on must name an accelerator of the topology");
      HYBRIMOE_REQUIRE(!d.cached || costs.accelerator_available(d.cached_on.accel_index()),
                       "expert demand cached on an unavailable accelerator — "
                       "residency on a lost device must be invalidated");
    }
  }

  SimState st;
  st.accel_side.resize(num_accels);
  st.accel_t.assign(num_accels, options.gpu_busy_until);
  st.link_t = options.link_busy_until.empty() ? std::vector<double>(num_accels, 0.0)
                                              : options.link_busy_until;
  for (const auto& d : demands) {
    Pending p{.expert = d.expert, .load = d.load, .cached = d.cached};
    if (d.cached) {
      insert_gpu_sorted(st.accel_side[d.cached_on.accel_index()], p);
    } else {
      st.cpu_side.push_back(p);
    }
  }
  std::sort(st.cpu_side.begin(), st.cpu_side.end(),
            [](const Pending& a, const Pending& b) {
              if (a.load != b.load) return a.load < b.load;
              return a.expert < b.expert;  // deterministic tie-break
            });

  LayerPlan plan;
  plan.layer = layer;
  plan.stage = stage;
  plan.gpu_offset = options.gpu_busy_until;
  plan.link_offsets = st.link_t;
  plan.tasks.reserve(demands.size());

  std::vector<double> xfer(num_accels);
  for (std::size_t a = 0; a < num_accels; ++a) xfer[a] = costs.transfer_time(a);

  auto emit_cpu = [&](const Pending& p) {
    const double dur = costs.cpu_expert_time(p.load, st.cpu_used);
    ExpertTask t;
    t.expert = {layer, p.expert};
    t.load = p.load;
    t.device = kCpuDevice;
    t.was_cached = p.cached;
    t.start = st.cpu_t;
    t.end = st.cpu_t + dur;
    st.cpu_t = t.end;
    st.cpu_used = true;
    plan.cpu_busy += dur;
    plan.tasks.push_back(t);
  };

  auto emit_gpu = [&](const Pending& p, std::size_t accel) {
    const double dur = costs.gpu_expert_time(p.load, accel);
    ExpertTask t;
    t.expert = {layer, p.expert};
    t.load = p.load;
    t.device = accelerator_device(accel);
    t.was_cached = p.cached;
    t.transferred = p.transferred;
    t.transfer_start = p.transfer_start;
    t.transfer_end = p.arrival;
    t.start = std::max(st.accel_t[accel], p.arrival);
    t.end = t.start + dur;
    st.accel_t[accel] = t.end;
    plan.gpu_busy += dur;
    if (p.transferred) plan.pcie_busy += p.arrival - p.transfer_start;
    plan.tasks.push_back(t);
  };

  auto any_accel_pending = [&st] {
    for (const auto& side : st.accel_side)
      if (!side.empty()) return true;
    return false;
  };

  while (any_accel_pending() || !st.cpu_side.empty()) {
    // ---- Enumerate feasible actions with their resource-availability time.
    // Accelerators: per device, prefer the highest-load *ready* item; else
    // wait for the earliest arrival (each queue is load-descending, so the
    // first ready item wins). Across devices, the earliest-available action
    // wins (tie: lowest device index).
    double gpu_when = kInf;
    std::size_t gpu_dev = 0;
    std::size_t gpu_pick = 0;
    for (std::size_t a = 0; a < num_accels; ++a) {
      const auto& side = st.accel_side[a];
      if (side.empty()) continue;
      std::size_t pick = 0;
      std::size_t earliest = 0;
      bool found_ready = false;
      for (std::size_t i = 0; i < side.size(); ++i) {
        if (side[i].arrival <= st.accel_t[a]) {
          pick = i;
          found_ready = true;
          break;
        }
        if (side[i].arrival < side[earliest].arrival) earliest = i;
      }
      if (!found_ready) pick = earliest;
      const double when = std::max(st.accel_t[a], side[pick].arrival);
      if (when < gpu_when) {
        gpu_when = when;
        gpu_dev = a;
        gpu_pick = pick;
      }
    }

    // CPU: front of its own queue; else steal the lowest-load cached expert
    // across the accelerator queues when that finishes sooner than its
    // device would get to it (it is last in that device's priority order).
    double cpu_when = kInf;
    bool cpu_steals = false;
    std::size_t steal_dev = 0;
    std::size_t steal_pick = 0;
    if (options.allow_cpu) {
      if (!st.cpu_side.empty()) {
        bool take = true;
        if (options.allow_transfers) {
          // Simulation-evaluated assignment: would the lowest-load uncached
          // expert finish sooner on the CPU than streamed at the tail of the
          // best link's chain? The 1.5x margin hedges the chain-length
          // estimate, which shrinks as the CPU keeps draining the queue.
          const Pending& cand = st.cpu_side.front();
          const double cpu_finish =
              st.cpu_t + 1.5 * costs.cpu_expert_time(cand.load, st.cpu_used);
          double gpu_finish = kInf;
          for (std::size_t a = 0; a < num_accels; ++a) {
            if (!costs.accelerator_available(a)) continue;
            const double arrival =
                st.link_t[a] + xfer[a] * static_cast<double>(st.cpu_side.size());
            const double finish =
                std::max(arrival,
                         st.accel_t[a] + gpu_backlog(st.accel_side[a], costs, a)) +
                costs.gpu_expert_time(cand.load, a);
            gpu_finish = std::min(gpu_finish, finish);
          }
          take = cpu_finish <= gpu_finish;
        }
        if (take) cpu_when = st.cpu_t;
      } else if (options.allow_cpu_steal) {
        // Lowest load == last element of each load-descending queue; skip
        // transferred items: their upload cost is already sunk. Across
        // devices the smallest-load candidate wins (tie: lowest device).
        bool found = false;
        for (std::size_t a = 0; a < num_accels; ++a) {
          const auto& side = st.accel_side[a];
          for (std::size_t i = side.size(); i-- > 0;) {
            if (side[i].transferred) continue;
            if (!found || side[i].load < st.accel_side[steal_dev][steal_pick].load) {
              steal_dev = a;
              steal_pick = i;
              found = true;
            }
            break;
          }
        }
        if (found) {
          const Pending& cand = st.accel_side[steal_dev][steal_pick];
          const double cpu_finish =
              st.cpu_t + costs.cpu_expert_time(cand.load, st.cpu_used);
          const double gpu_finish =
              st.accel_t[steal_dev] +
              gpu_backlog(st.accel_side[steal_dev], costs, steal_dev);  // served last
          if (cpu_finish < gpu_finish) {
            cpu_when = st.cpu_t;
            cpu_steals = true;
          }
        }
      }
    }

    // Transfer: highest-load uncached expert (back of the CPU queue) to the
    // accelerator with the earliest simulated completion, committed only
    // when that completion wins against the CPU route.
    double pcie_when = kInf;
    std::size_t xfer_dev = 0;
    if (options.allow_transfers && !st.cpu_side.empty()) {
      const Pending& cand = st.cpu_side.back();
      double best_finish = kInf;
      // A lost device is never a transfer target (conservation invariant);
      // accelerator 0 cannot be lost, so a target always exists.
      for (std::size_t a = 0; a < num_accels; ++a) {
        if (!costs.accelerator_available(a)) continue;
        const double arrival = st.link_t[a] + xfer[a];
        const double finish =
            std::max(arrival, st.accel_t[a] + gpu_backlog(st.accel_side[a], costs, a)) +
            costs.gpu_expert_time(cand.load, a);
        if (finish < best_finish) {
          best_finish = finish;
          xfer_dev = a;
        }
      }
      bool beneficial = true;
      if (options.allow_cpu && options.transfer_only_if_beneficial) {
        const double cpu_finish = st.cpu_t + cpu_backlog(st.cpu_side, costs);
        // Ties go to the accelerator route: it frees the CPU for other work
        // and the uploaded expert warms the cache.
        beneficial = best_finish <= cpu_finish;
      }
      if (beneficial) pcie_when = st.link_t[xfer_dev];
    }

    // Both marginal checks can decline at once (each route looks worse than
    // the other's estimate). Forcing the CPU (or, CPU disabled, the link)
    // to take its priority item keeps the greedy loop live.
    if (gpu_when == kInf && cpu_when == kInf && pcie_when == kInf &&
        !st.cpu_side.empty()) {
      if (options.allow_cpu) {
        cpu_when = st.cpu_t;
      } else {
        pcie_when = st.link_t[xfer_dev];
      }
    }

    HYBRIMOE_ASSERT(gpu_when < kInf || cpu_when < kInf || pcie_when < kInf,
                    "scheduling deadlock: no feasible action");

    // ---- Commit the action on the earliest-available resource
    // (tie-break: accelerator, then CPU, then link).
    if (gpu_when <= cpu_when && gpu_when <= pcie_when) {
      auto& side = st.accel_side[gpu_dev];
      const Pending p = side[gpu_pick];
      side.erase(side.begin() + static_cast<std::ptrdiff_t>(gpu_pick));
      emit_gpu(p, gpu_dev);
    } else if (cpu_when <= pcie_when) {
      if (cpu_steals) {
        auto& side = st.accel_side[steal_dev];
        const Pending p = side[steal_pick];
        side.erase(side.begin() + static_cast<std::ptrdiff_t>(steal_pick));
        emit_cpu(p);
      } else {
        const Pending p = st.cpu_side.front();
        st.cpu_side.erase(st.cpu_side.begin());
        emit_cpu(p);
      }
    } else {
      Pending p = st.cpu_side.back();
      st.cpu_side.pop_back();
      p.transferred = true;
      p.transfer_start = st.link_t[xfer_dev];
      st.link_t[xfer_dev] += xfer[xfer_dev];
      p.arrival = st.link_t[xfer_dev];
      insert_gpu_sorted(st.accel_side[xfer_dev], p);
    }
  }

  plan.makespan = options.gpu_busy_until;
  for (const auto& t : plan.tasks) plan.makespan = std::max(plan.makespan, t.end);
  plan.link_ends = st.link_t;
  return plan;
}

double makespan_with_extra_cached(std::uint16_t layer, Stage stage,
                                  std::span<const ExpertDemand> demands,
                                  std::uint16_t extra_cached, const hw::CostModel& costs,
                                  const SimOptions& options) {
  std::vector<ExpertDemand> adjusted(demands.begin(), demands.end());
  for (auto& d : adjusted)
    if (d.expert == extra_cached) d.cached = true;  // cached_on: primary device
  return simulate_layer(layer, stage, adjusted, costs, options).makespan;
}

}  // namespace hybrimoe::sched
