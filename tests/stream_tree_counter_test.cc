#include "stream/tree_counter.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "stream/counter_factory.h"
#include "util/mathutil.h"
#include "util/substream.h"

namespace longdp {
namespace stream {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

util::SubstreamRng NoiseStream(uint64_t i) {
  return util::SubstreamRng(0x7EE5 + i, util::substream::kCounterNoise);
}

std::unique_ptr<StreamCounter> MakeTree(int64_t horizon, double rho,
                                        uint64_t stream_id = 0) {
  auto r = MakeCounterFactory("tree").value()->Create(horizon, rho,
                                                      NoiseStream(stream_id));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(TreeCounterTest, ZeroNoiseIsExactPrefixSum) {
  auto counter = MakeTree(64, kInf);
  int64_t truth = 0;
  for (int64_t t = 1; t <= 64; ++t) {
    int64_t z = t % 5;
    truth += z;
    auto r = counter->Observe(z);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), truth) << "t=" << t;
  }
}

TEST(TreeCounterTest, RejectsPastHorizon) {
  auto counter = MakeTree(3, kInf);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(counter->Observe(1).ok());
  }
  EXPECT_TRUE(counter->Observe(1).status().IsOutOfRange());
}

TEST(TreeCounterTest, LevelsMatchHorizon) {
  EXPECT_EQ(TreeCounter(1, 1.0, NoiseStream(0)).levels(), 1);
  EXPECT_EQ(TreeCounter(2, 1.0, NoiseStream(0)).levels(), 2);
  EXPECT_EQ(TreeCounter(12, 1.0, NoiseStream(0)).levels(), 4);
  EXPECT_EQ(TreeCounter(16, 1.0, NoiseStream(0)).levels(), 5);
  EXPECT_EQ(TreeCounter(1024, 1.0, NoiseStream(0)).levels(), 11);
}

TEST(TreeCounterTest, NodeVarianceCalibration) {
  // sigma^2 = L / (2 rho).
  TreeCounter c(12, 0.005, NoiseStream(0));
  EXPECT_EQ(c.node_noise().kind(), dp::NoiseSampler::Kind::kGaussian);
  EXPECT_DOUBLE_EQ(c.node_noise().param(), 4.0 / (2.0 * 0.005));
}

TEST(TreeCounterTest, ErrorWithinBoundMostOfTheTime) {
  // Run many independent counters; at each step the error should stay
  // within ErrorBound(beta) with frequency >= 1 - beta (up to sampling
  // slack).
  const int64_t kT = 32;
  const double kRho = 0.5;
  const double kBeta = 0.05;
  const int kTrials = 400;
  util::SubstreamRng rng(3, util::substream::kGeneric);
  int violations = 0;
  int checks = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto counter = MakeTree(kT, kRho, static_cast<uint64_t>(trial));
    int64_t truth = 0;
    for (int64_t t = 1; t <= kT; ++t) {
      int64_t z = static_cast<int64_t>(rng.UniformInt(4));
      truth += z;
      auto r = counter->Observe(z);
      ASSERT_TRUE(r.ok());
      double err = std::fabs(static_cast<double>(r.value() - truth));
      if (err > counter->ErrorBound(kBeta, t)) ++violations;
      ++checks;
    }
  }
  double violation_rate = static_cast<double>(violations) / checks;
  EXPECT_LT(violation_rate, kBeta * 1.5 + 0.01);
}

TEST(TreeCounterTest, ErrorIndependentOfStreamContent) {
  // The error distribution is data-independent: feeding a heavy stream and
  // a zero stream gives statistically similar error spreads.
  const int64_t kT = 16;
  const double kRho = 0.2;
  const int kTrials = 2000;
  util::MomentAccumulator heavy, zero;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto a = MakeTree(kT, kRho, static_cast<uint64_t>(trial));
    auto b = MakeTree(kT, kRho, static_cast<uint64_t>(trial) + 100000);
    int64_t truth_a = 0;
    for (int64_t t = 1; t <= kT; ++t) {
      truth_a += 1000;
      auto ra = a->Observe(1000);
      auto rb = b->Observe(0);
      ASSERT_TRUE(ra.ok());
      ASSERT_TRUE(rb.ok());
      if (t == kT) {
        heavy.Add(static_cast<double>(ra.value() - truth_a));
        zero.Add(static_cast<double>(rb.value()));
      }
    }
  }
  EXPECT_NEAR(heavy.mean(), zero.mean(),
              6.0 * std::sqrt((heavy.variance() + zero.variance()) /
                              kTrials));
  EXPECT_NEAR(heavy.variance(), zero.variance(), 0.25 * zero.variance());
}

TEST(TreeCounterTest, FinalErrorVarianceMatchesNodeDecomposition) {
  // At t with popcount(t) set bits, the released sum carries popcount(t)
  // node noises: Var = popcount(t) * sigma^2.
  const int64_t kT = 8;
  const double kRho = 0.5;
  const int kTrials = 4000;
  // t = 7 = 0b111 -> 3 nodes.
  util::MomentAccumulator acc;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto counter = MakeTree(kT, kRho, static_cast<uint64_t>(trial));
    int64_t truth = 0;
    int64_t released = 0;
    for (int64_t t = 1; t <= 7; ++t) {
      truth += 2;
      released = counter->Observe(2).value();
    }
    acc.Add(static_cast<double>(released - truth));
  }
  TreeCounter reference(kT, kRho, NoiseStream(0));
  double expected_var = 3.0 * reference.node_noise().param();
  EXPECT_NEAR(acc.mean(), 0.0, 5.0 * std::sqrt(expected_var / kTrials));
  EXPECT_NEAR(acc.variance(), expected_var, 0.15 * expected_var);
}

// Parameterized sweep over horizons: exactness with zero noise and bound
// sanity across tree shapes.
class TreeCounterHorizonTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(TreeCounterHorizonTest, ZeroNoiseExactAcrossHorizons) {
  const int64_t kT = GetParam();
  auto counter = MakeTree(kT, kInf);
  util::SubstreamRng rng(11, util::substream::kGeneric);
  int64_t truth = 0;
  for (int64_t t = 1; t <= kT; ++t) {
    int64_t z = static_cast<int64_t>(rng.UniformInt(3));
    truth += z;
    auto r = counter->Observe(z);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), truth);
  }
}

TEST_P(TreeCounterHorizonTest, BoundGrowsWithPopcount) {
  const int64_t kT = GetParam();
  TreeCounter c(kT, 0.1, NoiseStream(0));
  // popcount(1) = 1 is the smallest bound; all-ones t the largest.
  int64_t all_ones = 1;
  while ((all_ones << 1) + 1 <= kT) all_ones = (all_ones << 1) + 1;
  EXPECT_LE(c.ErrorBound(0.05, 1), c.ErrorBound(0.05, all_ones));
}

INSTANTIATE_TEST_SUITE_P(Horizons, TreeCounterHorizonTest,
                         ::testing::Values(1, 2, 3, 7, 12, 16, 33, 100));

}  // namespace
}  // namespace stream
}  // namespace longdp
