#include "scenario/drivers.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "invariants.hpp"
#include "runtime/session.hpp"

namespace hybrimoe::scenario {
namespace {

using testing::check_deterministic;
using testing::check_no_starvation;
using testing::check_progress;
using testing::check_transfer_targets;

constexpr std::array<std::uint64_t, 8> kSeeds{3, 7, 11, 17, 23, 42, 101, 977};

runtime::ExperimentSpec tiny_spec(std::uint64_t seed) {
  runtime::ExperimentSpec spec;
  spec.model = moe::ModelConfig::tiny(4, 8, 2);
  spec.machine = hw::Topology::replicated(hw::Topology::unit_test(), 2);
  spec.cache_ratio = 0.25;
  spec.trace.seed = seed;
  spec.warmup_steps = 8;
  return spec;
}

std::vector<workload::RequestSpec> tiny_stream(std::uint64_t seed) {
  workload::RequestStreamParams p;
  p.num_requests = 8;
  p.arrival_rate = 400.0;  // arrivals overlap the sub-ms step timescale
  p.prompt_tokens_min = 4;
  p.prompt_tokens_max = 12;
  p.decode_tokens_min = 3;
  p.decode_tokens_max = 6;
  p.seed = seed;
  return workload::generate_request_stream(p);
}

struct ScenarioRun {
  std::vector<StepRecord> timeline;
  runtime::ServeMetrics metrics;
};

/// One seeded serving run under `scenario` (the shared shape of every test
/// below): the driver hooks into the engine's steps and the stream is
/// scenario-shaped before materialisation.
ScenarioRun run_scenario(const ScenarioSpec& scenario, std::uint64_t seed) {
  runtime::ExperimentHarness harness(tiny_spec(seed));
  ScenarioDriver driver(scenario, harness.mutable_costs());
  runtime::ServeOptions options;
  options.max_prefill_chunk = 4;
  options.hook = &driver;
  const auto specs = shape_stream(tiny_stream(seed), scenario);
  auto metrics = harness.serve_stream(runtime::preset_spec(runtime::Framework::HybriMoE),
                                      specs, options);
  return {driver.timeline(), std::move(metrics)};
}

// -- Cross-family invariants, >= 8 seeds each ------------------------------

TEST(ScenarioDriversTest, AllFamiliesUpholdTheCoreInvariantsAcrossSeeds) {
  for (const auto& name : scenario_registry().names()) {
    ScenarioSpec scenario = scenario_registry().get(name);
    for (const std::uint64_t seed : kSeeds) {
      scenario.seed = seed;
      const ScenarioRun run = run_scenario(scenario, seed);
      SCOPED_TRACE(name + " seed " + std::to_string(seed));
      check_no_starvation(run.metrics);
      check_progress(run.timeline);
      check_transfer_targets(run.timeline);
      EXPECT_EQ(run.metrics.rejected_count(), 0U);  // no admission control on
    }
  }
}

TEST(ScenarioDriversTest, EveryFamilyIsDeterministicUnderAFixedSeed) {
  for (const auto& name : scenario_registry().names()) {
    const ScenarioSpec scenario = scenario_registry().get(name);
    const ScenarioRun a = run_scenario(scenario, 42);
    const ScenarioRun b = run_scenario(scenario, 42);
    SCOPED_TRACE(name);
    check_deterministic(a.timeline, b.timeline, a.metrics, b.metrics);
  }
}

// -- Per-family mechanics --------------------------------------------------

TEST(ScenarioDriversTest, StragglerScalesTheLinkExactlyInsideItsWindow) {
  const ScenarioSpec scenario = scenario_registry().get("straggler_link");
  const ScenarioRun run = run_scenario(scenario, 42);
  ASSERT_GT(run.timeline.size(), scenario.start_step);
  for (const StepRecord& step : run.timeline) {
    const bool in_window = step.index >= scenario.start_step &&
                           (scenario.end_step == 0 || step.index < scenario.end_step);
    EXPECT_DOUBLE_EQ(step.link_scale[scenario.accel],
                     in_window ? scenario.bandwidth_scale : 1.0)
        << "step " << step.index;
  }
}

TEST(ScenarioDriversTest, StragglerSlowsTransfersRelativeToHealthyRun) {
  ScenarioSpec scenario = scenario_registry().get("straggler_link");
  scenario.start_step = 0;
  scenario.end_step = 0;  // degraded for the whole run
  scenario.bandwidth_scale = 0.05;
  const ScenarioRun degraded = run_scenario(scenario, 42);

  // The healthy twin: same stream, a scale-1.0 straggler (exact no-op —
  // bandwidth * 1.0 is bit-identical to the unscaled cost model).
  scenario.bandwidth_scale = 1.0;
  const ScenarioRun healthy = run_scenario(scenario, 42);
  EXPECT_GT(degraded.metrics.makespan, healthy.metrics.makespan);
}

TEST(ScenarioDriversTest, DeviceLossWindowIsVisibleAndConserved) {
  const ScenarioSpec scenario = scenario_registry().get("device_loss");
  const ScenarioRun run = run_scenario(scenario, 42);
  ASSERT_GT(run.timeline.size(), scenario.lose_step);
  bool saw_loss = false;
  for (const StepRecord& step : run.timeline) {
    const bool lost = step.index >= scenario.lose_step &&
                      (scenario.recover_step == 0 || step.index < scenario.recover_step);
    EXPECT_EQ(step.device_available[scenario.accel], lost ? 0 : 1)
        << "step " << step.index;
    saw_loss = saw_loss || lost;
  }
  EXPECT_TRUE(saw_loss);
  check_transfer_targets(run.timeline);
}

TEST(ScenarioDriversTest, CacheThrashPerturbsTheRunObservably) {
  ScenarioSpec scenario = scenario_registry().get("cache_thrash");
  const ScenarioRun thrashed = run_scenario(scenario, 42);

  // stride rotations with offset 0 are no-ops; an honest baseline is the
  // same driver with a window that never opens.
  scenario.start_step = 1U << 20;
  const ScenarioRun untouched = run_scenario(scenario, 42);
  ASSERT_EQ(thrashed.timeline.size(), untouched.timeline.size());
  bool differs = false;
  for (std::size_t i = 0; i < thrashed.timeline.size(); ++i)
    differs = differs ||
              thrashed.timeline[i].latency != untouched.timeline[i].latency ||
              thrashed.timeline[i].transfers_to_device !=
                  untouched.timeline[i].transfers_to_device;
  EXPECT_TRUE(differs) << "rotation changed no step";
}

TEST(ScenarioDriversTest, OverloadStormAppendsItsBurstDeterministically) {
  const ScenarioSpec scenario = scenario_registry().get("overload_storm");
  const auto base = tiny_stream(42);
  const auto shaped = shape_stream(base, scenario);
  ASSERT_EQ(shaped.size(), base.size() + scenario.storm_requests);
  std::uint64_t max_base_id = 0;
  for (const auto& s : base) max_base_id = std::max(max_base_id, s.id);
  for (std::size_t i = base.size(); i < shaped.size(); ++i) {
    EXPECT_GT(shaped[i].id, max_base_id);
    EXPECT_DOUBLE_EQ(shaped[i].arrival_time, scenario.storm_time);
    EXPECT_EQ(shaped[i].priority, workload::Priority::BestEffort);
  }
  // Shaping is pure: same inputs, same burst.
  EXPECT_EQ(shape_stream(base, scenario), shaped);

  // Other families leave the stream untouched.
  EXPECT_EQ(shape_stream(base, scenario_registry().get("device_loss")), base);
}

// -- Misuse ----------------------------------------------------------------

TEST(ScenarioDriversTest, DriverRejectsTargetsOutsideTheTopology) {
  runtime::ExperimentHarness harness(tiny_spec(42));  // 2 accelerators
  ScenarioSpec scenario = scenario_registry().get("device_loss");
  scenario.accel = 7;
  EXPECT_THROW(ScenarioDriver(scenario, harness.mutable_costs()),
               std::invalid_argument);
}

TEST(ScenarioDriversTest, DriverValidatesItsSpec) {
  runtime::ExperimentHarness harness(tiny_spec(42));
  ScenarioSpec scenario = scenario_registry().get("straggler_link");
  scenario.bandwidth_scale = -1.0;
  EXPECT_THROW(ScenarioDriver(scenario, harness.mutable_costs()),
               std::invalid_argument);
}

}  // namespace
}  // namespace hybrimoe::scenario
