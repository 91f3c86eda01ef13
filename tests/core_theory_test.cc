#include "core/theory.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace longdp {
namespace core {
namespace theory {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(TheoryTest, FixedWindowSigma2Formula) {
  // sigma^2 = (T - k + 1) / (2 rho); the paper's SIPP setting: T=12, k=3,
  // rho=0.005 -> 10 / 0.01 = 1000.
  EXPECT_DOUBLE_EQ(FixedWindowSigma2(12, 3, 0.005).value(), 1000.0);
  EXPECT_DOUBLE_EQ(FixedWindowSigma2(12, 12, 0.5).value(), 1.0);
  EXPECT_EQ(FixedWindowSigma2(12, 3, kInf).value(), 0.0);
}

TEST(TheoryTest, FixedWindowValidation) {
  EXPECT_FALSE(FixedWindowSigma2(2, 3, 0.5).ok());   // T < k
  EXPECT_FALSE(FixedWindowSigma2(12, 0, 0.5).ok());  // bad k
  EXPECT_FALSE(FixedWindowSigma2(12, 3, 0.0).ok());  // bad rho
}

TEST(TheoryTest, MaxBinErrorBoundMatchesClosedForm) {
  const int64_t T = 12;
  const int k = 3;
  const double rho = 0.005, beta = 0.05;
  double steps = static_cast<double>(T - k + 1);
  double expected = (std::sqrt(steps / rho) + 1.0 / std::sqrt(2.0)) *
                    std::sqrt(std::log(8.0 * steps / beta));
  EXPECT_NEAR(MaxBinCountErrorBound(T, k, rho, beta).value(), expected,
              1e-9);
}

TEST(TheoryTest, BoundShrinksWithMoreBudget) {
  double loose = MaxBinCountErrorBound(12, 3, 0.001, 0.05).value();
  double mid = MaxBinCountErrorBound(12, 3, 0.005, 0.05).value();
  double tight = MaxBinCountErrorBound(12, 3, 0.05, 0.05).value();
  EXPECT_GT(loose, mid);
  EXPECT_GT(mid, tight);
}

TEST(TheoryTest, BoundGrowsWithHorizonAndWindow) {
  EXPECT_LT(MaxBinCountErrorBound(12, 3, 0.005, 0.05).value(),
            MaxBinCountErrorBound(24, 3, 0.005, 0.05).value());
  EXPECT_LT(MaxBinCountErrorBound(12, 3, 0.005, 0.05).value(),
            MaxBinCountErrorBound(12, 6, 0.005, 0.05).value() *
                2.0);  // wider window: more bins in the union bound
}

TEST(TheoryTest, RecommendedNpadCeilsTheBound) {
  auto bound = MaxBinCountErrorBound(12, 3, 0.005, 0.05).value();
  auto npad = RecommendedNpad(12, 3, 0.005, 0.05, 8).value();
  EXPECT_EQ(npad, static_cast<int64_t>(std::ceil(bound)));
  EXPECT_EQ(RecommendedNpad(12, 3, kInf, 0.05, 8).value(), 0);
  // The categorical extension's A^k bins enter only inside the log.
  const double lead = std::sqrt(10 / 0.005) + 1 / std::sqrt(2.0);
  EXPECT_EQ(RecommendedNpad(12, 3, 0.005, 0.05, 27).value(),
            static_cast<int64_t>(
                std::ceil(lead * std::sqrt(std::log(27 * 10 / 0.05)))));
}

TEST(TheoryTest, DebiasedFractionBoundScalesInverseN) {
  double n1 = DebiasedFractionErrorBound(12, 3, 0.005, 0.05, 1000).value();
  double n2 = DebiasedFractionErrorBound(12, 3, 0.005, 0.05, 2000).value();
  EXPECT_NEAR(n1 / n2, 2.0, 1e-9);
  EXPECT_FALSE(DebiasedFractionErrorBound(12, 3, 0.005, 0.05, 0).ok());
}

TEST(TheoryTest, BiasedBoundExceedsDebiasedBound) {
  double biased =
      BiasedFractionErrorBound(12, 3, 0.005, 0.05, 23374, 0.1).value();
  double debiased =
      DebiasedFractionErrorBound(12, 3, 0.005, 0.05, 23374).value();
  EXPECT_GT(biased, debiased);
  EXPECT_FALSE(BiasedFractionErrorBound(12, 3, 0.005, 0.05, 10, 1.5).ok());
}

TEST(TheoryTest, CumulativeBoundFormula) {
  // alpha* = (1/n) sqrt( sum_b L_b^3 / rho * log(1/beta) ).
  const int64_t T = 12;
  const double rho = 0.005, beta = 0.05;
  const int64_t n = 23374;
  double sum_l3 = 0.0;
  for (int64_t b = 1; b <= T; ++b) {
    int64_t len = T - b + 1;
    int l = 1;
    while ((int64_t{1} << l) < len) ++l;
    if (len == 1) l = 1;
    double dl = static_cast<double>(std::max(l, 1));
    sum_l3 += dl * dl * dl;
  }
  double expected =
      std::sqrt(sum_l3 / rho * std::log(1.0 / beta)) / static_cast<double>(n);
  EXPECT_NEAR(CumulativeFractionErrorBound(T, rho, beta, n).value(),
              expected, expected * 0.01);
}

TEST(TheoryTest, CumulativeBoundValidation) {
  EXPECT_FALSE(CumulativeFractionErrorBound(0, 0.5, 0.05, 10).ok());
  EXPECT_FALSE(CumulativeFractionErrorBound(5, 0.0, 0.05, 10).ok());
  EXPECT_FALSE(CumulativeFractionErrorBound(5, 0.5, 1.5, 10).ok());
  EXPECT_FALSE(CumulativeFractionErrorBound(5, 0.5, 0.05, 0).ok());
  EXPECT_EQ(CumulativeFractionErrorBound(5, kInf, 0.05, 10).value(), 0.0);
}

TEST(TheoryTest, CumulativeBeatsFixedWindowReduction) {
  // The paper's Section 2.1 reduction sets k = T and answers a cumulative
  // query by summing up to 2^T histogram bins, so its error bound is
  // 2^T times the per-bin bound. The dedicated Algorithm 2 bound must be
  // far smaller for the SIPP parameters.
  double cumulative =
      CumulativeFractionErrorBound(12, 0.005, 0.05, 23374).value();
  double per_bin =
      DebiasedFractionErrorBound(12, 12, 0.005, 0.05, 23374).value();
  double reduction = per_bin * 4096.0;  // 2^12 bins in the worst case
  EXPECT_LT(cumulative, reduction / 100.0);
}

TEST(TheoryTest, RecomputeSigmaMatchesAlg1Sigma) {
  double sigma = RecomputePerStepSigma(12, 3, 0.005).value();
  EXPECT_NEAR(sigma, std::sqrt(1000.0), 1e-9);
}

}  // namespace
}  // namespace theory
}  // namespace core
}  // namespace longdp
