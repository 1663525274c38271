/// \file recorder_test.cpp
/// The trace::Recorder end to end through real serving runs: fixed-seed
/// determinism (byte-identical JSONL), schema versioning, the observer
/// guarantee (a recorded run reports the same metrics as an unrecorded one),
/// record conservation (per-step deltas sum to the run totals, and in
/// threaded mode to the CopyEngine's completed-job counters), and the
/// ScenarioDriver delegation that unifies scenario timelines with traces.

#include "trace/recorder.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "runtime/session.hpp"
#include "scenario/drivers.hpp"
#include "trace/schema.hpp"
#include "trace/sink.hpp"
#include "workload/request_stream.hpp"

namespace hybrimoe::trace {
namespace {

#if defined(__SANITIZE_THREAD__)
#define HYBRIMOE_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HYBRIMOE_TEST_TSAN 1
#endif
#endif
#if defined(HYBRIMOE_TEST_TSAN)
constexpr double kExecScale = 3e-3;
#else
constexpr double kExecScale = 3e-4;
#endif

/// The stack every traced run serves.
runtime::StackSpec hybrimoe_stack() {
  return runtime::preset_spec(runtime::Framework::HybriMoE);
}

runtime::ExperimentSpec make_spec() {
  runtime::ExperimentSpec spec;
  spec.model = moe::ModelConfig::tiny();
  spec.machine = hw::Topology::unit_test();
  spec.cache_ratio = 0.25;
  spec.trace.seed = 42;
  return spec;
}

std::vector<workload::RequestSpec> make_stream(std::size_t n = 8) {
  workload::RequestStreamParams stream;
  stream.num_requests = n;
  stream.arrival_rate = 4.0;
  stream.seed = 7;
  return workload::generate_request_stream(stream);
}

runtime::ServeOptions make_options() {
  runtime::ServeOptions options;
  options.max_batch = 4;
  options.max_prefill_chunk = 16;
  return options;
}

RecorderConfig make_config(const runtime::ExperimentHarness& harness,
                           TraceSink* sink) {
  RecorderConfig config;
  config.costs = &harness.costs();
  config.expert_bytes =
      static_cast<double>(harness.spec().model.routed_expert_bytes());
  config.sink = sink;
  config.stack = "HybriMoE";
  config.model = harness.spec().model.name;
  config.seed = 7;
  config.devices = harness.costs().num_accelerators();
  return config;
}

/// One recorded serving run; returns the sink's lines.
std::vector<std::string> traced_run() {
  runtime::ExperimentHarness harness(make_spec());
  VectorSink sink;
  Recorder recorder(make_config(harness, &sink));
  runtime::ServeOptions options = make_options();
  options.hook = &recorder;
  const auto metrics =
      harness.serve_stream(hybrimoe_stack(), make_stream(), options);
  recorder.write_summary(metrics);
  return sink.lines();
}

TEST(RecorderTest, FixedSeedTraceIsByteIdenticalAcrossRuns) {
  const auto first = traced_run();
  const auto second = traced_run();
  ASSERT_GT(first.size(), 2u);  // header + steps/events + summary
  EXPECT_EQ(first, second);
}

TEST(RecorderTest, HeaderCarriesSchemaNameAndVersion) {
  const auto lines = traced_run();
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.front().find("\"kind\": \"header\""), std::string::npos);
  EXPECT_NE(lines.front().find("\"schema\": \"hybrimoe-trace\""),
            std::string::npos);
  EXPECT_NE(lines.front().find("\"version\": 1"), std::string::npos);
  EXPECT_NE(lines.back().find("\"kind\": \"summary\""), std::string::npos);
}

TEST(RecorderTest, RecordedRunReportsIdenticalMetrics) {
  // The recorder is an observer: same stream, same metrics, with or without.
  const auto specs = make_stream();
  runtime::ExperimentHarness plain_harness(make_spec());
  const auto plain =
      plain_harness.serve_stream(hybrimoe_stack(), specs, make_options());

  runtime::ExperimentHarness traced_harness(make_spec());
  VectorSink sink;
  Recorder recorder(make_config(traced_harness, &sink));
  runtime::ServeOptions options = make_options();
  options.hook = &recorder;
  const auto traced =
      traced_harness.serve_stream(hybrimoe_stack(), specs, options);

  EXPECT_EQ(plain.makespan, traced.makespan);
  EXPECT_EQ(plain.finished_count(), traced.finished_count());
  EXPECT_EQ(plain.total_generated_tokens(), traced.total_generated_tokens());
  EXPECT_EQ(plain.steps.transfers, traced.steps.transfers);
  EXPECT_EQ(plain.steps.prefetches, traced.steps.prefetches);
  EXPECT_EQ(plain.steps.maintenance, traced.steps.maintenance);
  EXPECT_EQ(plain.steps.cache.hits, traced.steps.cache.hits);
  EXPECT_EQ(plain.steps.cache.misses, traced.steps.cache.misses);
}

TEST(RecorderTest, PerStepDeltasSumToRunTotals) {
  runtime::ExperimentHarness harness(make_spec());
  Recorder recorder(make_config(harness, nullptr));
  runtime::ServeOptions options = make_options();
  options.hook = &recorder;
  const auto metrics =
      harness.serve_stream(hybrimoe_stack(), make_stream(), options);

  ASSERT_FALSE(recorder.timeline().empty());
  std::size_t transfers = 0, prefetches = 0, maintenance = 0;
  std::vector<std::size_t> per_device;
  std::vector<double> bytes;
  for (const StepRecord& r : recorder.timeline()) {
    transfers += r.transfers;
    prefetches += r.prefetches;
    maintenance += r.maintenance;
    per_device.resize(std::max(per_device.size(), r.transfers_to_device.size()));
    bytes.resize(per_device.size(), 0.0);
    for (std::size_t a = 0; a < r.transfers_to_device.size(); ++a) {
      per_device[a] += r.transfers_to_device[a];
      bytes[a] += r.transferred_bytes[a];
    }
  }
  EXPECT_EQ(transfers, metrics.steps.transfers);
  EXPECT_EQ(prefetches, metrics.steps.prefetches);
  EXPECT_EQ(maintenance, metrics.steps.maintenance);
  ASSERT_EQ(per_device.size(), metrics.steps.device_transfers.size());
  const double expert_bytes =
      static_cast<double>(harness.spec().model.routed_expert_bytes());
  for (std::size_t a = 0; a < per_device.size(); ++a) {
    EXPECT_EQ(per_device[a], metrics.steps.device_transfers[a]) << "device " << a;
    EXPECT_DOUBLE_EQ(bytes[a], static_cast<double>(per_device[a]) * expert_bytes)
        << "device " << a;
  }
}

TEST(RecorderTest, TracedTransfersMatchCopyEngineCompletions) {
  // Threaded execution turns every accounted upload into one CopyEngine job
  // on its link, so the trace's per-device transfer counts must equal the
  // executor's completed-job counters — conservation between the modeled
  // records and the real execution backend.
  exec::ExecOptions exec_options;
  exec_options.time_scale = kExecScale;
  auto executor = std::make_shared<exec::HybridExecutor>(exec_options);

  runtime::ExperimentHarness harness(make_spec());
  harness.set_execution(exec::ExecutionMode::Threaded, executor);
  Recorder recorder(make_config(harness, nullptr));
  runtime::ServeOptions options = make_options();
  options.hook = &recorder;
  const auto metrics =
      harness.serve_stream(hybrimoe_stack(), make_stream(6), options);
  (void)metrics;

  std::vector<std::uint64_t> per_device;
  for (const StepRecord& r : recorder.timeline()) {
    per_device.resize(std::max(per_device.size(), r.transfers_to_device.size()));
    for (std::size_t a = 0; a < r.transfers_to_device.size(); ++a)
      per_device[a] += r.transfers_to_device[a];
  }
  ASSERT_FALSE(per_device.empty());
  ASSERT_EQ(executor->num_links(), per_device.size());
  std::uint64_t total = 0;
  for (std::size_t a = 0; a < per_device.size(); ++a) {
    EXPECT_EQ(executor->link_transfers_completed(a), per_device[a])
        << "link " << a;
    total += per_device[a];
  }
  EXPECT_GT(total, 0u);
}

TEST(RecorderTest, ScenarioDriverStreamsThroughExternalRecorder) {
  // The driver delegates recording: with an external recorder the scenario's
  // timeline and the streamed trace are one and the same data.
  runtime::ExperimentHarness harness(make_spec());
  VectorSink sink;
  Recorder recorder(make_config(harness, &sink));
  scenario::ScenarioSpec spec;
  spec.family = scenario::Family::StragglerLink;
  spec.accel = 0;
  spec.start_step = 2;
  spec.end_step = 5;
  spec.bandwidth_scale = 0.25;
  scenario::ScenarioDriver driver(spec, harness.mutable_costs(), &recorder);
  runtime::ServeOptions options = make_options();
  options.hook = &driver;
  const auto metrics =
      harness.serve_stream(hybrimoe_stack(), make_stream(), options);
  recorder.write_summary(metrics);

  EXPECT_EQ(driver.timeline().size(), recorder.timeline().size());
  ASSERT_GT(driver.timeline().size(), 5u);
  // The straggler window must be visible in the shared records.
  EXPECT_DOUBLE_EQ(driver.timeline()[2].link_scale[0], 0.25);
  EXPECT_DOUBLE_EQ(driver.timeline()[5].link_scale[0], 1.0);
  // header + one line per step + per event + summary all reached the sink.
  EXPECT_EQ(sink.lines().size(),
            2 + recorder.timeline().size() + recorder.events().size());
}

}  // namespace
}  // namespace hybrimoe::trace
