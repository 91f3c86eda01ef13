#include "util/mathutil.h"

#include <gtest/gtest.h>

#include <cmath>

namespace longdp {
namespace util {
namespace {

TEST(MathTest, FloorLog2) {
  EXPECT_EQ(FloorLog2(1), 0);
  EXPECT_EQ(FloorLog2(2), 1);
  EXPECT_EQ(FloorLog2(3), 1);
  EXPECT_EQ(FloorLog2(4), 2);
  EXPECT_EQ(FloorLog2(1023), 9);
  EXPECT_EQ(FloorLog2(1024), 10);
}

TEST(MathTest, TreeLevels) {
  // L = max(ceil(log2(x)), 1) — the Corollary B.1 quantity.
  EXPECT_EQ(TreeLevels(1), 1);
  EXPECT_EQ(TreeLevels(2), 1);
  EXPECT_EQ(TreeLevels(3), 2);
  EXPECT_EQ(TreeLevels(12), 4);
  EXPECT_EQ(TreeLevels(16), 4);
  EXPECT_EQ(TreeLevels(17), 5);
  EXPECT_EQ(TreeLevels(1024), 10);
  EXPECT_EQ(TreeLevels(1025), 11);
}

TEST(MathTest, MomentAccumulatorBasics) {
  MomentAccumulator acc;
  EXPECT_EQ(acc.count(), 0);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.Add(v);
  EXPECT_EQ(acc.count(), 8);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  // Population variance is 4; sample variance 32/7.
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(acc.min(), 2.0);
  EXPECT_EQ(acc.max(), 9.0);
}

TEST(MathTest, MomentAccumulatorSingle) {
  MomentAccumulator acc;
  acc.Add(3.5);
  EXPECT_EQ(acc.mean(), 3.5);
  EXPECT_EQ(acc.variance(), 0.0);
  EXPECT_EQ(acc.min(), 3.5);
  EXPECT_EQ(acc.max(), 3.5);
}

TEST(MathTest, QuantileType7MatchesR) {
  // R: quantile(c(1,2,3,4), 0.25, type=7) == 1.75
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_NEAR(Quantile(v, 0.25), 1.75, 1e-12);
  EXPECT_NEAR(Quantile(v, 0.5), 2.5, 1e-12);
  EXPECT_NEAR(Quantile(v, 0.75), 3.25, 1e-12);
  EXPECT_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_EQ(Quantile(v, 1.0), 4.0);
}

TEST(MathTest, QuantileUnsortedInput) {
  std::vector<double> v = {9, 1, 5, 3, 7};
  EXPECT_EQ(Median(v), 5.0);
}

TEST(MathTest, QuantileEmpty) {
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
}

TEST(MathTest, QuantileSingleton) {
  EXPECT_EQ(Quantile({3.0}, 0.025), 3.0);
  EXPECT_EQ(Quantile({3.0}, 0.975), 3.0);
}

TEST(MathTest, Mean) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3}), 2.0);
}

}  // namespace
}  // namespace util
}  // namespace longdp
