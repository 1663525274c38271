#include "runtime/stack_spec.hpp"

#include <gtest/gtest.h>

#include "exec/executor.hpp"
#include "runtime/session.hpp"
#include "runtime/stack_registry.hpp"

namespace hybrimoe::runtime {
namespace {

/// EXPECT_THROW plus a check that the message mentions every fragment —
/// the did-you-mean / precise-error contracts are part of the API.
template <typename Fn>
void expect_invalid(Fn&& fn, std::initializer_list<const char*> fragments) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const char* fragment : fragments)
      EXPECT_NE(msg.find(fragment), std::string::npos)
          << "message missing '" << fragment << "': " << msg;
  }
}

// ---------------------------------------------------------------------------
// Round trip.
// ---------------------------------------------------------------------------

TEST(StackSpecTest, DefaultSpecIsFullHybrimoeStack) {
  const StackSpec spec;
  EXPECT_EQ(spec.scheduler.policy, "hybrid");
  EXPECT_EQ(spec.cache.policy, "mrs");
  EXPECT_EQ(spec.prefetch.policy, "impact");
  EXPECT_TRUE(spec.dynamic_cache_inserts);
  EXPECT_TRUE(spec.update_policy_scores);
  EXPECT_TRUE(spec.cache_maintenance);
  EXPECT_EQ(spec.warmup, WarmupSeeding::Seeded);
  EXPECT_FALSE(spec.overhead_us.has_value());
  EXPECT_FALSE(spec.execution.has_value());
  EXPECT_EQ(spec.default_name(), "hybrid+mrs+impact");
}

TEST(StackSpecTest, PresetSpecsRoundTripThroughJson) {
  for (const Framework f : kAllFrameworks) {
    const StackSpec spec = preset_spec(f);
    EXPECT_EQ(spec.name, to_string(f));
    const std::string json = to_json(spec);
    EXPECT_EQ(parse_stack_spec(json), spec) << json;
  }
}

TEST(StackSpecTest, AblationSpecsRoundTripThroughJson) {
  for (const auto& config :
       {core::HybriMoeConfig::baseline(), core::HybriMoeConfig::scheduling_only(),
        core::HybriMoeConfig::prefetching_only(), core::HybriMoeConfig::caching_only(),
        core::HybriMoeConfig::full()}) {
    const StackSpec spec = ablation_spec(config);
    EXPECT_EQ(spec.name, config.label());
    EXPECT_EQ(parse_stack_spec(to_json(spec)), spec) << to_json(spec);
  }
}

TEST(StackSpecTest, FullyLoadedSpecRoundTrips) {
  StackSpec spec;
  spec.name = "kitchen-sink";
  spec.scheduler.policy = "static-layer";
  spec.scheduler.gpu_fraction = 0.375;
  spec.cache.policy = "mrs";
  spec.cache.ratio = 0.5;
  spec.cache.alpha = 0.45;
  spec.cache.top_p_factor = 3;
  spec.prefetch.policy = "impact";
  spec.prefetch.depth = 2;
  spec.prefetch.confidence_decay = 0.8;
  spec.prefetch.max_per_layer = 4;
  spec.dynamic_cache_inserts = false;
  spec.update_policy_scores = true;
  spec.cache_maintenance = false;
  spec.overhead_us = 62.5;
  spec.warmup = WarmupSeeding::Pinned;
  spec.execution = exec::ExecutionMode::Threaded;
  EXPECT_EQ(parse_stack_spec(to_json(spec)), spec) << to_json(spec);
}

TEST(StackSpecTest, PerformanceExecutionModeRoundTrips) {
  StackSpec spec;
  spec.execution = exec::ExecutionMode::Performance;
  const std::string json = to_json(spec);
  EXPECT_NE(json.find("\"exec\": \"performance\""), std::string::npos) << json;
  EXPECT_EQ(parse_stack_spec(json), spec);
  const StackSpec parsed = parse_stack_spec(R"({"exec": "performance"})");
  ASSERT_TRUE(parsed.execution.has_value());
  EXPECT_EQ(*parsed.execution, exec::ExecutionMode::Performance);
}

TEST(StackSpecTest, ShorthandStringsEqualPolicyOnlyObjects) {
  const StackSpec a = parse_stack_spec(
      R"({"scheduler": "hybrid", "cache": "lru", "prefetch": "none"})");
  const StackSpec b = parse_stack_spec(
      R"({"scheduler": {"policy": "hybrid"}, "cache": {"policy": "lru"},
          "prefetch": {"policy": "none"}})");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.default_name(), "hybrid+lru");
}

TEST(StackSpecTest, NumbersParseExactly) {
  const StackSpec spec = parse_stack_spec(
      R"({"cache": {"policy": "mrs", "ratio": 0.25, "alpha": 3e-1},
          "overhead_us": 120})");
  EXPECT_EQ(spec.cache.ratio, 0.25);
  EXPECT_EQ(spec.cache.alpha, 0.3);
  EXPECT_EQ(spec.overhead_us, 120.0);
}

// ---------------------------------------------------------------------------
// Parse errors.
// ---------------------------------------------------------------------------

TEST(StackSpecTest, UnknownTopLevelKeySuggests) {
  expect_invalid([] { (void)parse_stack_spec(R"({"sheduler": "hybrid"})"); },
                 {"unknown spec key 'sheduler'", "did you mean 'scheduler'?"});
}

TEST(StackSpecTest, UnknownComponentOptionSuggests) {
  expect_invalid(
      [] { (void)parse_stack_spec(R"({"cache": {"policy": "mrs", "ratioo": 0.5}})"); },
      {"unknown cache option 'ratioo'", "did you mean 'ratio'?"});
  expect_invalid(
      [] { (void)parse_stack_spec(R"({"prefetch": {"policy": "impact", "dept": 2}})"); },
      {"unknown prefetch option 'dept'", "did you mean 'depth'?"});
}

TEST(StackSpecTest, MalformedDocumentsFailWithOffsets) {
  expect_invalid([] { (void)parse_stack_spec("42"); },
                 {"must be a JSON object"});
  expect_invalid([] { (void)parse_stack_spec(R"({"scheduler": "hybrid")"); },
                 {"unterminated object"});
  expect_invalid([] { (void)parse_stack_spec(R"({"scheduler": "hybrid"} trailing)"); },
                 {"trailing characters"});
  expect_invalid([] { (void)parse_stack_spec(R"({"name": "a", "name": "b"})"); },
                 {"duplicate key 'name'"});
  expect_invalid([] { (void)parse_stack_spec(R"({"overhead_us": "forty"})"); },
                 {"'overhead_us' must be a number"});
  expect_invalid([] { (void)parse_stack_spec(R"({"overhead_us": 1e999})"); },
                 {"offset 16", "number '1e999' is out of range"});
  expect_invalid([] { (void)parse_stack_spec(R"({"dynamic_inserts": 1})"); },
                 {"'dynamic_inserts' must be true or false"});
  expect_invalid(
      [] { (void)parse_stack_spec(R"({"cache": {"policy": "mrs", "top_p_factor": 1.5}})"); },
      {"'top_p_factor' must be a non-negative integer"});
  expect_invalid([] { (void)parse_stack_spec(R"({"warmup": "pined"})"); },
                 {"unknown warmup seeding 'pined'", "did you mean 'pinned'?"});
  expect_invalid([] { (void)parse_stack_spec(R"({"exec": "treaded"})"); },
                 {"unknown execution mode 'treaded'", "did you mean 'threaded'?"});
}

// ---------------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------------

TEST(StackSpecTest, UnknownComponentNamesFailWithDidYouMean) {
  StackSpec spec;
  spec.scheduler.policy = "hybird";
  expect_invalid([&] { spec.validate(); },
                 {"unknown scheduler 'hybird'", "did you mean 'hybrid'?",
                  "'fixed-map'", "'gpu-centric'", "'static-layer'"});

  spec = StackSpec{};
  spec.cache.policy = "mrss";
  expect_invalid([&] { spec.validate(); },
                 {"unknown cache policy 'mrss'", "did you mean 'mrs'?", "'lru'"});

  spec = StackSpec{};
  spec.prefetch.policy = "impct";
  expect_invalid([&] { spec.validate(); },
                 {"unknown prefetcher 'impct'", "did you mean 'impact'?", "'none'"});
}

TEST(StackSpecTest, OptionPolicyCoherenceEnforced) {
  StackSpec spec;
  spec.scheduler.gpu_fraction = 0.5;  // policy is "hybrid"
  expect_invalid([&] { spec.validate(); },
                 {"'gpu_fraction' only applies to policy 'static-layer'"});

  spec = StackSpec{};
  spec.cache.policy = "lru";
  spec.cache.alpha = 0.3;
  expect_invalid([&] { spec.validate(); }, {"only apply to policy 'mrs'"});

  spec = StackSpec{};
  spec.prefetch.policy = "none";
  spec.prefetch.depth = 3;
  expect_invalid([&] { spec.validate(); },
                 {"'depth'/'confidence_decay' only apply to policy 'impact'"});

  spec = StackSpec{};
  spec.prefetch.policy = "none";
  spec.prefetch.max_per_layer = 4;
  expect_invalid([&] { spec.validate(); },
                 {"'max_per_layer' requires a prefetching policy"});
}

TEST(StackSpecTest, OutOfRangeOptionsRejected) {
  StackSpec spec;
  spec.cache.ratio = 1.5;
  expect_invalid([&] { spec.validate(); }, {"cache 'ratio' must be in [0, 1]"});

  spec = StackSpec{};
  spec.cache.alpha = 0.0;
  expect_invalid([&] { spec.validate(); }, {"alpha"});

  spec = StackSpec{};
  spec.prefetch.confidence_decay = 2.0;
  expect_invalid([&] { spec.validate(); }, {"confidence_decay"});

  spec = StackSpec{};
  spec.overhead_us = -1.0;
  expect_invalid([&] { spec.validate(); }, {"'overhead_us' must be >= 0"});

  spec = StackSpec{};
  spec.scheduler.policy = "static-layer";
  spec.scheduler.gpu_fraction = -0.1;
  expect_invalid([&] { spec.validate(); }, {"'gpu_fraction' must be in [0, 1]"});
}

// ---------------------------------------------------------------------------
// Framework name lookups route through the preset registry.
// ---------------------------------------------------------------------------

TEST(StackSpecTest, FrameworkFromNameRoundTripsAndSuggests) {
  for (const Framework f : kAllFrameworks)
    EXPECT_EQ(framework_from_name(to_string(f)), f);
  EXPECT_EQ(preset_names().size(), kAllFrameworks.size());
  expect_invalid([] { (void)framework_from_name("HybriMoe"); },
                 {"unknown framework preset 'HybriMoe'", "did you mean 'HybriMoE'?"});
  expect_invalid([] { (void)preset_spec("KTransformer"); },
                 {"did you mean 'KTransformers'?"});
}

// ---------------------------------------------------------------------------
// Assembly through make_engine / the harness.
// ---------------------------------------------------------------------------

class StackSpecEngineTest : public ::testing::Test {
 protected:
  StackSpecEngineTest() {
    spec_.model = moe::ModelConfig::tiny(4, 8, 2);
    spec_.machine = hw::Topology::unit_test();
    spec_.cache_ratio = 0.25;
    spec_.trace.seed = 91;
    spec_.warmup_steps = 8;
  }

  ExperimentSpec spec_;
};

TEST_F(StackSpecEngineTest, CustomStacksBuildAndRun) {
  ExperimentHarness harness(spec_);
  for (const char* json :
       {R"({"scheduler": "hybrid", "cache": "lru", "prefetch": "none"})",
        R"({"scheduler": "gpu-centric", "cache": "mrs"})",
        R"({"scheduler": "fixed-map", "cache": "fifo", "prefetch": "next-layer",
            "dynamic_inserts": false, "warmup": "pinned"})",
        R"({"scheduler": "hybrid", "cache": "random", "prefetch": "impact",
            "overhead_us": 0})"}) {
    const StackSpec stack = parse_stack_spec(json);
    EXPECT_GT(harness.run_decode(stack, 4).total_latency, 0.0) << json;
    EXPECT_GT(harness.run_prefill(stack, 8).ttft(), 0.0) << json;
  }
}

TEST_F(StackSpecEngineTest, EngineNameFollowsSpecName) {
  ExperimentHarness harness(spec_);
  StackSpec stack;
  stack.cache.policy = "lru";
  EXPECT_EQ(harness.build(stack)->name(), "hybrid+lru+impact");
  stack.name = "my-stack";
  EXPECT_EQ(harness.build(stack)->name(), "my-stack");
}

TEST_F(StackSpecEngineTest, SpecCacheRatioOverridesBuildInfo) {
  ExperimentHarness harness(spec_);
  StackSpec stack;
  // 4 layers x 8 experts; build-info ratio 0.25 -> capacity 8.
  EXPECT_EQ(harness.build(stack)->device_cache(0).capacity(), 8U);
  stack.cache.ratio = 0.5;
  EXPECT_EQ(harness.build(stack)->device_cache(0).capacity(), 16U);
  stack.cache.ratio = 0.0;
  EXPECT_EQ(harness.build(stack)->device_cache(0).capacity(), 0U);
}

TEST_F(StackSpecEngineTest, ThreadedExecutionOverrideRequiresExecutor) {
  ExperimentHarness harness(spec_);
  StackSpec stack;
  stack.execution = exec::ExecutionMode::Threaded;
  // The engine constructor enforces the executor contract.
  EXPECT_THROW((void)harness.build(stack), std::invalid_argument);
}

TEST_F(StackSpecEngineTest, MakeEngineValidatesSpec) {
  ExperimentHarness harness(spec_);
  StackSpec stack;
  stack.cache.policy = "belady";
  expect_invalid([&] { (void)harness.build(stack); },
                 {"unknown cache policy 'belady'"});
}

TEST_F(StackSpecEngineTest, ServeAcceptsSpecs) {
  ExperimentHarness harness(spec_);
  workload::RequestStreamParams stream;
  stream.num_requests = 3;
  stream.arrival_rate = 5.0;
  stream.prompt_tokens_min = 4;
  stream.prompt_tokens_max = 8;
  stream.decode_tokens_min = 2;
  stream.decode_tokens_max = 4;
  stream.seed = 5;
  const auto requests = workload::generate_request_stream(stream);

  const auto preset = harness.serve_stream(preset_spec(Framework::HybriMoE), requests);
  const auto spec_run = harness.serve_stream(preset_spec(Framework::HybriMoE), requests);
  ASSERT_EQ(preset.requests.size(), spec_run.requests.size());
  EXPECT_EQ(preset.makespan, spec_run.makespan);
  EXPECT_EQ(preset.steps.total_latency, spec_run.steps.total_latency);
}

TEST(StackSpecTest, TopologySectionRoundTrips) {
  StackSpec named;
  named.topology.preset = "dual_a6000";
  EXPECT_EQ(parse_stack_spec(to_json(named)), named);
  EXPECT_NE(to_json(named).find("\"topology\": \"dual_a6000\""), std::string::npos);

  StackSpec with_devices;
  with_devices.topology.preset = "a6000_xeon10";
  with_devices.topology.devices = 4;
  EXPECT_EQ(parse_stack_spec(to_json(with_devices)), with_devices);

  // Shorthand string and object forms agree.
  const auto a = parse_stack_spec(R"({"topology": "quad_sim"})");
  const auto b = parse_stack_spec(R"({"topology": {"preset": "quad_sim"}})");
  EXPECT_EQ(a, b);

  // Default specs carry no topology section at all (byte-stable presets).
  EXPECT_TRUE(StackSpec{}.topology.empty());
  EXPECT_EQ(to_json(StackSpec{}).find("topology"), std::string::npos);
}

TEST(StackSpecTest, TopologyValidationAndResolution) {
  StackSpec unknown;
  unknown.topology.preset = "dual_a600";  // typo
  try {
    unknown.validate();
    FAIL() << "expected did-you-mean failure";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("dual_a6000"), std::string::npos);
  }

  StackSpec zero;
  zero.topology.preset = "quad_sim";
  zero.topology.devices = 0;
  EXPECT_THROW(zero.validate(), std::invalid_argument);

  // resolve_topology: presets resolve, the devices override replicates.
  EXPECT_EQ(resolve_topology({}).num_accelerators(), 1u);
  TopologySpec quad{.preset = "quad_sim", .devices = {}};
  EXPECT_EQ(resolve_topology(quad).num_accelerators(), 4u);
  TopologySpec scaled{.preset = "a6000_xeon10", .devices = 3};
  const auto topo = resolve_topology(scaled);
  EXPECT_EQ(topo.num_accelerators(), 3u);
  EXPECT_EQ(topo.accelerators[2].name, "gpu2");
}

TEST_F(StackSpecEngineTest, TopologyMismatchWithCostModelIsRejected) {
  ExperimentHarness harness(spec_);
  StackSpec spec;
  spec.topology.preset = "dual_a6000";  // 2 accelerators
  // The fixture's harness cost model is the single-pair unit machine.
  EXPECT_THROW((void)harness.build(spec), std::invalid_argument);
}

TEST_F(StackSpecEngineTest, MultiDeviceHarnessBuildsAndSplitsTheCache) {
  spec_.machine = hw::Topology::replicated(hw::Topology::unit_test(), 2);
  ExperimentHarness harness(spec_);
  StackSpec spec;  // HybriMoE components, no explicit topology section
  auto engine = harness.build(spec);
  ASSERT_EQ(engine->num_devices(), 2u);
  const std::size_t total =
      engine->device_cache(0).capacity() + engine->device_cache(1).capacity();
  EXPECT_EQ(total, cache::ExpertCache::capacity_for_ratio(spec_.model, 0.25));
  // The run must produce finite, validated metrics on both devices.
  const auto metrics = harness.run_decode(spec, 6);
  EXPECT_GT(metrics.total_latency, 0.0);
  EXPECT_EQ(metrics.per_forward.size(), 6u);
}

}  // namespace
}  // namespace hybrimoe::runtime
