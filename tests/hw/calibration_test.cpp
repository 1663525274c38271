#include "hw/calibration.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace hybrimoe::hw {
namespace {

TEST(FitLinearTest, ExactOnLinearData) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ys{3.0, 5.0, 7.0, 9.0};  // y = 1 + 2x
  const auto fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(FitLinearTest, RejectsDegenerateInput) {
  const std::vector<double> xs{1.0};
  const std::vector<double> ys{1.0};
  EXPECT_THROW((void)fit_linear(xs, ys), std::invalid_argument);
  const std::vector<double> same{2.0, 2.0};
  EXPECT_THROW((void)fit_linear(same, same), std::invalid_argument);
  const std::vector<double> two{1.0, 2.0};
  const std::vector<double> three{1.0, 2.0, 3.0};
  EXPECT_THROW((void)fit_linear(two, three), std::invalid_argument);
}

class CalibrationTest : public ::testing::Test {
 protected:
  moe::ModelConfig model_ = moe::ModelConfig::deepseek();
  CostModel truth_{Topology::a6000_xeon10(), model_};
};

TEST_F(CalibrationTest, NoiselessFitRecoversTimings) {
  util::Rng rng(101);
  const auto samples = simulate_measurements(truth_, rng, 2, /*noise=*/0.0);
  const auto fitted = fit_topology(samples, model_);
  const CostModel fit_costs(fitted, model_);

  // The warmup phase must reproduce the quantities scheduling consumes.
  for (const std::size_t tokens : {1UL, 32UL, 256UL}) {
    EXPECT_NEAR(fit_costs.gpu_expert_time(tokens, 0), truth_.gpu_expert_time(tokens, 0),
                truth_.gpu_expert_time(tokens, 0) * 0.10)
        << tokens;
  }
  // CPU: large-token (GEMM) regime and single-token (bandwidth) regime.
  EXPECT_NEAR(fit_costs.cpu_expert_time(512), truth_.cpu_expert_time(512),
              truth_.cpu_expert_time(512) * 0.15);
  EXPECT_NEAR(fit_costs.cpu_expert_time(1), truth_.cpu_expert_time(1),
              truth_.cpu_expert_time(1) * 0.15);
  EXPECT_NEAR(fit_costs.transfer_time(0), truth_.transfer_time(0),
              truth_.transfer_time(0) * 0.05);
  EXPECT_NEAR(fitted.cpu.warmup_penalty, truth_.topology().cpu.warmup_penalty,
              truth_.topology().cpu.warmup_penalty * 0.05);
}

TEST_F(CalibrationTest, NoisyFitStaysInBand) {
  util::Rng rng(102);
  const auto samples = simulate_measurements(truth_, rng, 8, /*noise=*/0.05);
  const auto fitted = fit_topology(samples, model_);
  const CostModel fit_costs(fitted, model_);
  EXPECT_NEAR(fit_costs.transfer_time(0), truth_.transfer_time(0),
              truth_.transfer_time(0) * 0.15);
  EXPECT_NEAR(fit_costs.cpu_expert_time(256), truth_.cpu_expert_time(256),
              truth_.cpu_expert_time(256) * 0.25);
  EXPECT_NEAR(fit_costs.gpu_expert_time(1, 0), truth_.gpu_expert_time(1, 0),
              truth_.gpu_expert_time(1, 0) * 0.25);
}

TEST_F(CalibrationTest, FittedProfileValidates) {
  util::Rng rng(103);
  const auto samples = simulate_measurements(truth_, rng, 4, 0.02);
  EXPECT_NO_THROW(fit_topology(samples, model_).validate());
}

TEST_F(CalibrationTest, RequiresEnoughSamples) {
  WarmupMeasurements empty;
  EXPECT_THROW((void)fit_topology(empty, model_), std::invalid_argument);
}

TEST_F(CalibrationTest, MeasurementSweepCoversRegimes) {
  util::Rng rng(104);
  const auto samples = simulate_measurements(truth_, rng, 1, 0.0);
  bool has_single = false;
  bool has_large = false;
  for (const auto& s : samples.cpu_warm) {
    has_single |= s.tokens == 1;
    has_large |= s.tokens >= 256;
  }
  EXPECT_TRUE(has_single);
  EXPECT_TRUE(has_large);
  EXPECT_GE(samples.transfers.size(), 2U);
}

TEST_F(CalibrationTest, NoiseParameterValidated) {
  util::Rng rng(105);
  EXPECT_THROW((void)simulate_measurements(truth_, rng, 0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)simulate_measurements(truth_, rng, 1, 0.9), std::invalid_argument);
}

TEST(WallClockTest, TimeCallableMeasuresRealWork) {
  // A 2ms sleep must measure at least 2ms (and a no-op far less than that).
  const double slept = time_callable(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(2)); }, 3);
  EXPECT_GE(slept, 2e-3);
  EXPECT_LT(time_callable([] {}, 3), 2e-3);
  EXPECT_THROW((void)time_callable({}, 3), std::invalid_argument);
  EXPECT_THROW((void)time_callable([] {}, 0), std::invalid_argument);
}

TEST(WallClockTest, MeasureComputeSamplesFeedsTheFitters) {
  // Time a synthetic kernel whose cost grows with the token load; the
  // samples must be usable where simulated cpu_warm samples are.
  const std::vector<std::size_t> loads{1, 4, 16};
  const auto samples = measure_compute_samples(
      [](std::size_t tokens) {
        volatile double sink = 0.0;
        for (std::size_t i = 0; i < tokens * 20000; ++i) sink = sink + 1.0;
      },
      loads, 3);
  ASSERT_EQ(samples.size(), loads.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].tokens, loads[i]);
    EXPECT_GT(samples[i].seconds, 0.0);
  }
  EXPECT_GT(samples.back().seconds, samples.front().seconds);
  const std::vector<std::size_t> bad{0};
  EXPECT_THROW((void)measure_compute_samples([](std::size_t) {}, bad, 3),
               std::invalid_argument);
}

}  // namespace
}  // namespace hybrimoe::hw
