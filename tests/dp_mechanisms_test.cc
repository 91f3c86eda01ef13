#include "dp/mechanisms.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "dp/accountant.h"

namespace longdp {
namespace dp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(CalibrationTest, GaussianSigmaForZCdp) {
  auto r = GaussianSigma2ForZCdp(0.5, 1.0);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value(), 1.0);  // 1 / (2 * 0.5)
  r = GaussianSigma2ForZCdp(0.005, 1.0);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value(), 100.0);
  r = GaussianSigma2ForZCdp(0.5, 2.0);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value(), 4.0);
}

TEST(CalibrationTest, InfiniteRhoMeansZeroNoise) {
  auto r = GaussianSigma2ForZCdp(kInf, 1.0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 0.0);
}

TEST(CalibrationTest, RejectsBadArgs) {
  EXPECT_FALSE(GaussianSigma2ForZCdp(0.0, 1.0).ok());
  EXPECT_FALSE(GaussianSigma2ForZCdp(-1.0, 1.0).ok());
  EXPECT_FALSE(GaussianSigma2ForZCdp(0.5, -1.0).ok());
}

TEST(CalibrationTest, CostInvertsCalibration) {
  double sigma2 = GaussianSigma2ForZCdp(0.02, 1.0).value();
  EXPECT_NEAR(ZCdpCostOfGaussian(sigma2, 1.0), 0.02, 1e-12);
  EXPECT_EQ(ZCdpCostOfGaussian(0.0, 1.0), kInf);
  EXPECT_EQ(ZCdpCostOfGaussian(0.0, 0.0), 0.0);
}

TEST(CalibrationTest, ZCdpToApproxDp) {
  // epsilon = rho + 2 sqrt(rho ln(1/delta)).
  double rho = 0.005, delta = 1e-6;
  double expected = rho + 2.0 * std::sqrt(rho * std::log(1.0 / delta));
  EXPECT_NEAR(ZCdpToApproxDpEpsilon(rho, delta), expected, 1e-12);
  EXPECT_EQ(ZCdpToApproxDpEpsilon(0.0, delta), 0.0);
  EXPECT_EQ(ZCdpToApproxDpEpsilon(rho, 0.0), kInf);
}

TEST(AccountantTest, ChargesAccumulate) {
  ZCdpAccountant acc(1.0);
  EXPECT_TRUE(acc.Charge(0.25, "a").ok());
  EXPECT_TRUE(acc.Charge(0.25, "b").ok());
  EXPECT_DOUBLE_EQ(acc.spent(), 0.5);
  EXPECT_DOUBLE_EQ(acc.remaining(), 0.5);
  EXPECT_EQ(acc.ledger().size(), 2u);
  EXPECT_EQ(acc.ledger()[0].label, "a");
}

TEST(AccountantTest, RejectsOverBudget) {
  ZCdpAccountant acc(0.1);
  EXPECT_TRUE(acc.Charge(0.1, "all").ok());
  Status st = acc.Charge(0.0001, "extra");
  EXPECT_TRUE(st.IsResourceExhausted());
  // The failed charge must not mutate the ledger.
  EXPECT_DOUBLE_EQ(acc.spent(), 0.1);
  EXPECT_EQ(acc.ledger().size(), 1u);
}

TEST(AccountantTest, RejectsNegativeCharge) {
  ZCdpAccountant acc(1.0);
  EXPECT_TRUE(acc.Charge(-0.1, "bad").IsInvalidArgument());
}

TEST(AccountantTest, InfiniteBudgetNeverExhausts) {
  ZCdpAccountant acc(kInf);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(acc.Charge(1e6, "big").ok());
  }
  EXPECT_EQ(acc.remaining(), kInf);
}

TEST(AccountantTest, ToleratesSplitRounding) {
  // Splitting a budget 1000 ways and re-summing must not spuriously fail.
  ZCdpAccountant acc(0.005);
  double share = 0.005 / 1000.0;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(acc.Charge(share, "share").ok()) << "i=" << i;
  }
  EXPECT_NEAR(acc.spent(), 0.005, 1e-12);
}

}  // namespace
}  // namespace dp
}  // namespace longdp
