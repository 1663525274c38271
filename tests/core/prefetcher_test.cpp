#include "core/prefetcher.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "cache/classic_policies.hpp"

namespace hybrimoe::core {
namespace {

using moe::ExpertId;

/// Builds a two-layer forward trace with hand-written routing/predictions:
/// layer 1 will activate experts {0: load 8, 1: load 6}; the prediction seen
/// from layer 0 matches it exactly. Loads are large enough that caching
/// either expert shortens layer 1 under the unit cost model.
workload::ForwardTrace make_trace(std::size_t experts = 8) {
  workload::ForwardTrace trace;
  trace.tokens = 1;
  trace.layers.resize(2);
  trace.predictions.resize(2);
  for (auto& layer : trace.layers) {
    layer.loads.assign(experts, 0);
    layer.scores.assign(experts, 0.0f);
    layer.total_tokens = 1;
  }
  trace.layers[0].loads[2] = 1;
  trace.layers[0].scores[2] = 1.0f;
  trace.layers[1].loads[0] = 8;
  trace.layers[1].loads[1] = 6;
  trace.layers[1].scores[0] = 0.6f;
  trace.layers[1].scores[1] = 0.3f;
  trace.predictions[0].push_back(trace.layers[1]);  // perfect prediction
  return trace;
}

class PrefetcherTest : public ::testing::Test {
 protected:
  moe::ModelConfig model_ = moe::ModelConfig::tiny();
  hw::CostModel costs_{hw::Topology::unit_test(), model_};
  cache::ExpertCache cache_{4, std::make_unique<cache::LruPolicy>()};
};

TEST_F(PrefetcherTest, ParamsValidate) {
  ImpactDrivenPrefetcher::Params p;
  p.depth = 0;
  EXPECT_THROW((ImpactDrivenPrefetcher{p, sched::SimOptions{}}), std::invalid_argument);
  p = {};
  p.confidence_decay = 0.0;
  EXPECT_THROW((ImpactDrivenPrefetcher{p, sched::SimOptions{}}), std::invalid_argument);
  p = {};
  p.max_per_layer = 0;
  EXPECT_THROW((ImpactDrivenPrefetcher{p, sched::SimOptions{}}), std::invalid_argument);
}

TEST_F(PrefetcherTest, PicksHighestImpactExpert) {
  ImpactDrivenPrefetcher prefetcher;
  const auto trace = make_trace();
  // Budget for exactly one transfer (transfer == 3s on the unit machine).
  const auto decisions =
      prefetcher.plan(trace, 0, sched::Stage::Decode, cache_, costs_, 2.0);
  ASSERT_EQ(decisions.size(), 1U);
  // Expert (1,0) carries the larger load — caching it avoids the larger job.
  EXPECT_EQ(decisions[0].expert, (ExpertId{1, 0}));
  EXPECT_GT(decisions[0].impact, 0.0);
}

TEST_F(PrefetcherTest, BudgetLimitsDecisions) {
  ImpactDrivenPrefetcher prefetcher;
  const auto trace = make_trace();
  EXPECT_TRUE(
      prefetcher.plan(trace, 0, sched::Stage::Decode, cache_, costs_, 0.0).empty());
  EXPECT_TRUE(
      prefetcher.plan(trace, 0, sched::Stage::Decode, cache_, costs_, -1.0).empty());
  // A window of 4s allows two starts (0 and 3).
  const auto two =
      prefetcher.plan(trace, 0, sched::Stage::Decode, cache_, costs_, 4.0);
  EXPECT_EQ(two.size(), 2U);
}

TEST_F(PrefetcherTest, SkipsCachedAndTransientExperts) {
  ImpactDrivenPrefetcher prefetcher;
  const auto trace = make_trace();
  (void)cache_.insert({1, 0});
  auto decisions =
      prefetcher.plan(trace, 0, sched::Stage::Decode, cache_, costs_, 2.0);
  ASSERT_EQ(decisions.size(), 1U);
  EXPECT_EQ(decisions[0].expert, (ExpertId{1, 1}));  // next best

  std::unordered_set<ExpertId> transient{{ExpertId{1, 1}}};
  decisions = prefetcher.plan(trace, 0, sched::Stage::Decode, cache_, costs_, 2.0,
                              &transient);
  EXPECT_TRUE(decisions.empty());
}

TEST_F(PrefetcherTest, NoPredictionsNoDecisions) {
  ImpactDrivenPrefetcher prefetcher;
  auto trace = make_trace();
  trace.predictions[0].clear();
  EXPECT_TRUE(
      prefetcher.plan(trace, 0, sched::Stage::Decode, cache_, costs_, 10.0).empty());
  // Last layer has nothing ahead.
  EXPECT_TRUE(
      prefetcher.plan(trace, 1, sched::Stage::Decode, cache_, costs_, 10.0).empty());
}

TEST_F(PrefetcherTest, ZeroCapacityCacheNoDecisions) {
  cache::ExpertCache empty(0, std::make_unique<cache::LruPolicy>());
  ImpactDrivenPrefetcher prefetcher;
  const auto trace = make_trace();
  EXPECT_TRUE(
      prefetcher.plan(trace, 0, sched::Stage::Decode, empty, costs_, 10.0).empty());
}

TEST_F(PrefetcherTest, ConfidenceDecayPrefersNearLayers) {
  // Two target layers with identical predicted work: the near one wins.
  workload::ForwardTrace trace;
  trace.tokens = 1;
  trace.layers.resize(3);
  trace.predictions.resize(3);
  for (auto& layer : trace.layers) {
    layer.loads.assign(8, 0);
    layer.scores.assign(8, 0.0f);
    layer.total_tokens = 1;
  }
  trace.layers[1].loads[3] = 4;
  trace.layers[2].loads[5] = 4;
  trace.predictions[0].push_back(trace.layers[1]);
  trace.predictions[0].push_back(trace.layers[2]);

  ImpactDrivenPrefetcher::Params p;
  p.depth = 2;
  p.confidence_decay = 0.5;
  ImpactDrivenPrefetcher prefetcher(p, sched::SimOptions{});
  const auto decisions =
      prefetcher.plan(trace, 0, sched::Stage::Decode, cache_, costs_, 2.0);
  ASSERT_EQ(decisions.size(), 1U);
  EXPECT_EQ(decisions[0].expert, (ExpertId{1, 3}));
}

TEST_F(PrefetcherTest, MaxPerLayerCapRespected) {
  workload::ForwardTrace trace = make_trace();
  // Give layer 1 many activated experts.
  for (std::uint32_t e = 0; e < 8; ++e) trace.layers[1].loads[e] = 2;
  trace.predictions[0][0] = trace.layers[1];
  ImpactDrivenPrefetcher::Params p;
  p.max_per_layer = 3;
  ImpactDrivenPrefetcher prefetcher(p, sched::SimOptions{});
  const auto decisions =
      prefetcher.plan(trace, 0, sched::Stage::Decode, cache_, costs_, 1000.0);
  EXPECT_LE(decisions.size(), 3U);
}

TEST_F(PrefetcherTest, NextLayerTopRanksByScore) {
  NextLayerTopPrefetcher prefetcher;
  EXPECT_EQ(prefetcher.name(), "next-layer-top");
  const auto trace = make_trace();
  const auto decisions =
      prefetcher.plan(trace, 0, sched::Stage::Decode, cache_, costs_, 10.0);
  ASSERT_EQ(decisions.size(), 2U);
  EXPECT_EQ(decisions[0].expert, (ExpertId{1, 0}));  // score 0.6 first
  EXPECT_EQ(decisions[1].expert, (ExpertId{1, 1}));
}

TEST_F(PrefetcherTest, NextLayerTopSkipsResident) {
  NextLayerTopPrefetcher prefetcher;
  const auto trace = make_trace();
  (void)cache_.insert({1, 0});
  const auto decisions =
      prefetcher.plan(trace, 0, sched::Stage::Decode, cache_, costs_, 10.0);
  ASSERT_EQ(decisions.size(), 1U);
  EXPECT_EQ(decisions[0].expert, (ExpertId{1, 1}));
}

}  // namespace
}  // namespace hybrimoe::core
