#include "workload/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <regex>
#include <string>

#include "workload/generator.hpp"

namespace hybrimoe::workload {
namespace {

TraceGenerator make_generator(std::uint64_t seed = 61) {
  TraceGenParams params;
  params.seed = seed;
  return TraceGenerator(moe::ModelConfig::tiny(3, 8, 2), params);
}

void expect_routing_equal(const moe::LayerRouting& a, const moe::LayerRouting& b) {
  EXPECT_EQ(a.total_tokens, b.total_tokens);
  EXPECT_EQ(a.loads, b.loads);
  ASSERT_EQ(a.scores.size(), b.scores.size());
  for (std::size_t i = 0; i < a.scores.size(); ++i)
    EXPECT_FLOAT_EQ(a.scores[i], b.scores[i]);
}

void expect_forward_equal(const ForwardTrace& a, const ForwardTrace& b) {
  EXPECT_EQ(a.tokens, b.tokens);
  ASSERT_EQ(a.num_layers(), b.num_layers());
  for (std::size_t l = 0; l < a.num_layers(); ++l) {
    expect_routing_equal(a.layers[l], b.layers[l]);
    ASSERT_EQ(a.predictions[l].size(), b.predictions[l].size());
    for (std::size_t d = 0; d < a.predictions[l].size(); ++d)
      expect_routing_equal(a.predictions[l][d], b.predictions[l][d]);
  }
}

TEST(TraceIoTest, DecodeRoundTrip) {
  auto gen = make_generator();
  const auto trace = gen.generate_decode(4);
  const auto back = decode_trace_from_string(to_string(trace));
  ASSERT_EQ(back.num_steps(), trace.num_steps());
  for (std::size_t s = 0; s < trace.num_steps(); ++s)
    expect_forward_equal(trace.steps[s], back.steps[s]);
}

TEST(TraceIoTest, PrefillRoundTrip) {
  auto gen = make_generator(62);
  const auto trace = gen.generate_prefill(12);
  const auto back = prefill_trace_from_string(to_string(trace));
  EXPECT_EQ(back.prompt_tokens, 12U);
  expect_forward_equal(trace.forward, back.forward);
}

TEST(TraceIoTest, FileRoundTrip) {
  auto gen = make_generator(63);
  const auto trace = gen.generate_decode(3);
  const std::string path = ::testing::TempDir() + "/hybrimoe_trace_test.txt";
  save_trace(path, trace);
  const auto back = load_decode_trace(path);
  ASSERT_EQ(back.num_steps(), 3U);
  expect_forward_equal(trace.steps[0], back.steps[0]);
  std::remove(path.c_str());
}

TEST(TraceIoTest, RejectsWrongKind) {
  auto gen = make_generator(64);
  const auto decode = gen.generate_decode(1);
  EXPECT_THROW((void)prefill_trace_from_string(to_string(decode)),
               std::invalid_argument);
}

TEST(TraceIoTest, RejectsCorruptedInput) {
  auto gen = make_generator(65);
  auto text = to_string(gen.generate_decode(2));
  EXPECT_THROW((void)decode_trace_from_string(text.substr(0, text.size() / 2)),
               std::invalid_argument);
  EXPECT_THROW((void)decode_trace_from_string("garbage"), std::invalid_argument);
  EXPECT_THROW((void)decode_trace_from_string("HYBRIMOE-TRACE v99 decode"),
               std::invalid_argument);

  // Counts that would wrap or size a huge allocation: rejected as malformed,
  // never read as 2^64-1 or handed to reserve/resize.
  const auto with = [](const std::string& trace, const std::string& pattern,
                       const std::string& replacement) {
    return std::regex_replace(trace, std::regex(pattern), replacement,
                              std::regex_constants::format_first_only);
  };
  const std::string max = "18446744073709551615";  // 2^64 - 1
  for (const std::string& bad :
       {with(text, "steps \\d+", "steps " + max), with(text, "steps \\d+", "steps -1"),
        with(text, "layers=\\d+", "layers=" + max),
        with(text, "experts=\\d+", "experts=" + max),
        with(text, "tokens=\\d+", "tokens=-1"), with(text, "loads \\d+", "loads -2")}) {
    SCOPED_TRACE(bad.substr(0, 80));
    EXPECT_THROW((void)decode_trace_from_string(bad), std::invalid_argument);
  }
  const auto prefill = to_string(gen.generate_prefill(4));
  EXPECT_THROW((void)prefill_trace_from_string(with(prefill, "prompt \\d+", "prompt -5")),
               std::invalid_argument);
}

TEST(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW((void)load_decode_trace("/nonexistent/path/trace.txt"),
               std::invalid_argument);
}

TEST(BatchDecodeTest, LoadsSumToBatchTimesK) {
  auto gen = make_generator(66);
  const auto model = moe::ModelConfig::tiny(3, 8, 2);
  const auto trace = gen.generate_decode_batch(5, 4);
  ASSERT_EQ(trace.num_steps(), 5U);
  for (const auto& step : trace.steps) {
    EXPECT_EQ(step.tokens, 4U);
    for (const auto& layer : step.layers) {
      std::uint32_t total = 0;
      for (const auto l : layer.loads) total += l;
      EXPECT_EQ(total, 4U * model.top_k);
    }
  }
}

TEST(BatchDecodeTest, BatchOneMatchesStructureOfPlainDecode) {
  auto gen = make_generator(67);
  const auto trace = gen.generate_decode_batch(3, 1);
  for (const auto& step : trace.steps) {
    EXPECT_EQ(step.tokens, 1U);
    for (const auto& layer : step.layers)
      EXPECT_EQ(layer.activated_count(), 2U);  // top_k
  }
}

TEST(BatchDecodeTest, RejectsZeroBatch) {
  auto gen = make_generator(68);
  EXPECT_THROW((void)gen.generate_decode_batch(1, 0), std::invalid_argument);
  EXPECT_THROW((void)gen.generate_decode_batch(0, 1), std::invalid_argument);
}

TEST(BatchDecodeTest, RoundTripsThroughSerialization) {
  auto gen = make_generator(69);
  const auto trace = gen.generate_decode_batch(2, 3);
  const auto back = decode_trace_from_string(to_string(trace));
  expect_forward_equal(trace.steps[1], back.steps[1]);
}

}  // namespace
}  // namespace hybrimoe::workload
