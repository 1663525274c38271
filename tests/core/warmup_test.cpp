#include "core/warmup.hpp"

#include <gtest/gtest.h>

namespace hybrimoe::core {
namespace {

TEST(HottestExpertsTest, OrdersByFrequencyWithDeterministicTies) {
  const std::vector<std::vector<double>> freq = {
      {5.0, 1.0, 3.0},
      {3.0, 7.0, 0.0},
  };
  const auto hottest = hottest_experts(freq, 3);
  ASSERT_EQ(hottest.size(), 3U);
  EXPECT_EQ(hottest[0], (moe::ExpertId{1, 1}));  // 7
  EXPECT_EQ(hottest[1], (moe::ExpertId{0, 0}));  // 5
  // Tie at 3.0 between (0,2) and (1,0): lower id first.
  EXPECT_EQ(hottest[2], (moe::ExpertId{0, 2}));
}

TEST(HottestExpertsTest, CountClamped) {
  const std::vector<std::vector<double>> freq = {{1.0, 2.0}};
  EXPECT_EQ(hottest_experts(freq, 10).size(), 2U);
  EXPECT_TRUE(hottest_experts(freq, 0).empty());
  EXPECT_TRUE(hottest_experts({}, 5).empty());
}

}  // namespace
}  // namespace hybrimoe::core
