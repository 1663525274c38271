#include "hw/calibration.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace hybrimoe::hw {

namespace {

/// Median of a copied span (robust against a few noisy outliers).
double median_of(std::span<const double> xs) {
  HYBRIMOE_REQUIRE(!xs.empty(), "median of empty span");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t mid = sorted.size() / 2;
  if (sorted.size() % 2 == 1) return sorted[mid];
  return 0.5 * (sorted[mid - 1] + sorted[mid]);
}

}  // namespace

LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys) {
  HYBRIMOE_REQUIRE(xs.size() == ys.size(), "fit_linear requires equal-length series");
  HYBRIMOE_REQUIRE(xs.size() >= 2, "fit_linear requires at least two samples");
  const double mx = util::mean(xs);
  const double my = util::mean(ys);
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  HYBRIMOE_REQUIRE(sxx > 0.0, "fit_linear requires varying x values");
  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

Topology fit_topology(const WarmupMeasurements& samples, const moe::ModelConfig& model,
                      std::string name) {
  HYBRIMOE_REQUIRE(samples.cpu_warm.size() >= 2, "need >=2 warm CPU samples");
  HYBRIMOE_REQUIRE(!samples.gpu_times.empty(), "need GPU samples");
  HYBRIMOE_REQUIRE(samples.transfers.size() >= 2, "need >=2 transfer samples");

  Topology fit;
  fit.name = std::move(name);
  AcceleratorProfile& gpu = fit.accelerators.emplace_back();
  gpu.name = "gpu0";
  const double flops_per_token = model.routed.flops(1);
  const auto expert_bytes = static_cast<double>(model.routed_expert_bytes());

  // --- CPU: the FLOP-bound region is linear in tokens; the token=1 sample
  // sits in the bandwidth-bound region.
  {
    std::vector<double> xs;
    std::vector<double> ys;
    for (const auto& s : samples.cpu_warm) {
      if (s.tokens >= 2) {  // linear region only
        xs.push_back(static_cast<double>(s.tokens));
        ys.push_back(s.seconds);
      }
    }
    HYBRIMOE_REQUIRE(xs.size() >= 2, "need >=2 multi-token CPU samples");
    const LinearFit line = fit_linear(xs, ys);
    HYBRIMOE_REQUIRE(line.slope > 0.0, "CPU timing must grow with load");
    fit.cpu.flops = flops_per_token / line.slope;

    const double launch = samples.cpu_empty_task.empty()
                              ? 0.0
                              : median_of(samples.cpu_empty_task);
    fit.cpu.launch_overhead = launch;

    std::vector<double> single_token;
    for (const auto& s : samples.cpu_warm)
      if (s.tokens == 1) single_token.push_back(s.seconds);
    // bandwidth-bound time = t(1) - launch, but never below the FLOP bound.
    double mem_time = single_token.empty() ? line.intercept
                                           : median_of(single_token) - launch;
    mem_time = std::max(mem_time, flops_per_token / fit.cpu.flops);
    fit.cpu.mem_bandwidth = expert_bytes / mem_time;

    fit.cpu.warmup_penalty = samples.cpu_first_extra.empty()
                                 ? 0.0
                                 : std::max(0.0, median_of(samples.cpu_first_extra));
  }

  // --- GPU: per-expert time is flat (launch + weight streaming) until very
  // large loads; fit the flat part as launch + bytes/bw and the growth (if
  // any) as the FLOP term.
  {
    const double launch = samples.gpu_empty_task.empty()
                              ? 0.0
                              : median_of(samples.gpu_empty_task);
    gpu.compute.launch_overhead = launch;

    std::vector<double> small_loads;
    std::vector<double> xs;
    std::vector<double> ys;
    for (const auto& s : samples.gpu_times) {
      if (s.tokens <= 8) small_loads.push_back(s.seconds);
      xs.push_back(static_cast<double>(s.tokens));
      ys.push_back(s.seconds);
    }
    HYBRIMOE_REQUIRE(!small_loads.empty(), "need small-load GPU samples");
    const double flat = median_of(small_loads) - launch;
    HYBRIMOE_REQUIRE(flat > 0.0, "GPU flat time must be positive");
    gpu.compute.mem_bandwidth = expert_bytes / flat;

    // FLOP throughput from the largest-load sample once it exceeds the flat
    // region; fall back to a huge value when the sweep never leaves it.
    gpu.compute.flops = 1e18;
    const auto biggest = std::max_element(
        samples.gpu_times.begin(), samples.gpu_times.end(),
        [](const ComputeSample& a, const ComputeSample& b) { return a.tokens < b.tokens; });
    const double big_time = biggest->seconds - launch;
    if (big_time > flat * 1.05) {
      gpu.compute.flops =
          flops_per_token * static_cast<double>(biggest->tokens) / big_time;
    }
    gpu.compute.warmup_penalty = 0.0;
  }

  // --- Host link: straight line over bytes.
  {
    std::vector<double> xs;
    std::vector<double> ys;
    for (const auto& s : samples.transfers) {
      xs.push_back(s.bytes);
      ys.push_back(s.seconds);
    }
    const LinearFit line = fit_linear(xs, ys);
    HYBRIMOE_REQUIRE(line.slope > 0.0, "transfer timing must grow with bytes");
    gpu.link.bandwidth = 1.0 / line.slope;
    gpu.link.latency = std::max(0.0, line.intercept);
  }

  fit.validate();
  return fit;
}

WarmupMeasurements simulate_measurements(const CostModel& ground_truth, util::Rng& rng,
                                         std::size_t repetitions, double noise) {
  HYBRIMOE_REQUIRE(repetitions > 0, "repetitions must be positive");
  HYBRIMOE_REQUIRE(noise >= 0.0 && noise < 0.5, "noise out of range");
  auto jitter = [&](double t) { return t * std::exp(rng.gaussian(0.0, noise)); };

  WarmupMeasurements m;
  // The CPU and the primary accelerator (index 0) with its host link.
  const ComputeDeviceParams& cpu = ground_truth.topology().cpu;
  const AcceleratorProfile& gpu = ground_truth.topology().accelerators.front();
  const auto expert_bytes =
      static_cast<double>(ground_truth.model().routed_expert_bytes());

  const std::size_t token_sweep[] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512};
  for (std::size_t rep = 0; rep < repetitions; ++rep) {
    for (const std::size_t tokens : token_sweep) {
      m.cpu_warm.push_back({tokens, jitter(ground_truth.cpu_expert_time(tokens, true))});
      m.gpu_times.push_back({tokens, jitter(ground_truth.gpu_expert_time(tokens, 0))});
    }
    m.cpu_first_extra.push_back(jitter(cpu.warmup_penalty));
    m.cpu_empty_task.push_back(jitter(cpu.launch_overhead));
    m.gpu_empty_task.push_back(jitter(gpu.compute.launch_overhead));
    // Sweep transfer sizes around the expert size to expose the latency term.
    for (const double frac : {0.25, 0.5, 1.0, 2.0}) {
      const double bytes = expert_bytes * frac;
      m.transfers.push_back(
          {bytes, jitter(gpu.link.latency + bytes / gpu.link.bandwidth)});
    }
  }
  return m;
}

double time_callable(const std::function<void()>& fn, std::size_t repetitions) {
  HYBRIMOE_REQUIRE(static_cast<bool>(fn), "time_callable requires a callable");
  HYBRIMOE_REQUIRE(repetitions > 0, "repetitions must be positive");
  using Clock = std::chrono::steady_clock;
  fn();  // warmup: first call pays cold caches / lazy allocation
  std::vector<double> samples;
  samples.reserve(repetitions);
  for (std::size_t i = 0; i < repetitions; ++i) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2, samples.end());
  return samples[samples.size() / 2];
}

std::vector<ComputeSample> measure_compute_samples(
    const std::function<void(std::size_t)>& kernel,
    std::span<const std::size_t> token_loads, std::size_t repetitions) {
  HYBRIMOE_REQUIRE(static_cast<bool>(kernel), "measure_compute_samples requires a kernel");
  std::vector<ComputeSample> samples;
  samples.reserve(token_loads.size());
  for (const std::size_t tokens : token_loads) {
    HYBRIMOE_REQUIRE(tokens > 0, "token loads must be positive");
    samples.push_back(
        {tokens, time_callable([&kernel, tokens] { kernel(tokens); }, repetitions)});
  }
  return samples;
}

}  // namespace hybrimoe::hw
