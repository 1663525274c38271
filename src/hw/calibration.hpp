#pragma once

/// \file calibration.hpp
/// The paper's warmup phase (§IV-A): before inference, HybriMoE measures CPU
/// and GPU processing speeds and transfer latency, then schedules against the
/// fitted model. Here the "measurements" come from a ground-truth CostModel
/// perturbed with multiplicative noise (tests/examples wire that up), and the
/// fitting code reconstructs a one-accelerator Topology (the CPU, the primary
/// accelerator and its host link) from raw samples exactly as the real system
/// would from wall-clock timings.

#include <functional>
#include <span>
#include <vector>

#include "hw/cost_model.hpp"
#include "util/rng.hpp"

namespace hybrimoe::hw {

/// Ordinary least squares fit y = intercept + slope * x.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r_squared = 0.0;
};

/// Least-squares line through (xs[i], ys[i]); needs two or more samples of
/// equal count and varying x.
[[nodiscard]] LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys);

/// One timed expert execution at a given token load.
struct ComputeSample {
  std::size_t tokens = 0;
  double seconds = 0.0;
};

/// One timed transfer of `bytes` across the link.
struct TransferSample {
  double bytes = 0.0;
  double seconds = 0.0;
};

/// Raw warmup measurements for one device or link.
struct WarmupMeasurements {
  std::vector<ComputeSample> cpu_warm;      ///< steady-state CPU expert timings
  std::vector<double> cpu_first_extra;      ///< first-task-minus-warm deltas
  std::vector<double> cpu_empty_task;       ///< empty-dispatch timings (launch cost)
  std::vector<ComputeSample> gpu_times;     ///< GPU expert timings across loads
  std::vector<double> gpu_empty_task;       ///< GPU launch cost samples
  std::vector<TransferSample> transfers;    ///< host-link timings across sizes
};

/// Fits a one-accelerator Topology (accelerator "gpu0", cache_share 1) from
/// raw samples for a given model geometry (the geometry converts token
/// counts into FLOPs/bytes).
[[nodiscard]] Topology fit_topology(const WarmupMeasurements& samples,
                                    const moe::ModelConfig& model,
                                    std::string name = "calibrated");

/// Produces measurements by sampling a ground-truth cost model with
/// log-normal-ish multiplicative noise of the given relative sigma —
/// the stand-in for running real warmup kernels.
[[nodiscard]] WarmupMeasurements simulate_measurements(const CostModel& ground_truth,
                                                       util::Rng& rng,
                                                       std::size_t repetitions = 8,
                                                       double noise = 0.03);

// ---- Real wall-clock hooks (threaded execution backend) -------------------
//
// The threaded backend in src/exec runs actual kernels and paces them to the
// cost model; these hooks are the measurement side of that bridge — they time
// caller-provided callables on the host with a monotonic clock, exactly the
// warmup measurements the paper's §IV-A takes on the real testbed.

/// Median wall-clock seconds of one call to `fn` over `repetitions` timed
/// runs (one untimed warmup call first; median rejects scheduler outliers).
/// `fn` must be callable repeatedly with no externally visible side effects.
[[nodiscard]] double time_callable(const std::function<void()>& fn,
                                   std::size_t repetitions = 9);

/// Time `kernel(tokens)` across `token_loads`, producing samples that plug
/// straight into WarmupMeasurements::cpu_warm / gpu_times and thus into
/// fit_topology — a real-measurement replacement for
/// simulate_measurements on hosts where the kernels actually run.
[[nodiscard]] std::vector<ComputeSample> measure_compute_samples(
    const std::function<void(std::size_t)>& kernel,
    std::span<const std::size_t> token_loads, std::size_t repetitions = 9);

}  // namespace hybrimoe::hw
