#include "util/rng.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/substream.h"

namespace longdp {
namespace util {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  SubstreamRng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  SubstreamRng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, SplitMix64KnownValues) {
  // Word i of the substream with raw key k is the i-th SplitMix64 output
  // from state k. Reference values from the canonical SplitMix64
  // implementation with seed state 0.
  SubstreamRng rng = SubstreamRng::FromState(/*key=*/0, /*cursor=*/0);
  EXPECT_EQ(rng.Next(), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(rng.Next(), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(rng.Next(), 0x06C45D188009454FULL);
}

TEST(RngTest, UniformIntInRange) {
  SubstreamRng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.UniformInt(bound), bound);
    }
  }
}

TEST(RngTest, UniformIntCoversAllResidues) {
  SubstreamRng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformIntRoughlyUniform) {
  SubstreamRng rng(13);
  const int kBuckets = 10, kDraws = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.UniformInt(kBuckets)];
  }
  // Each bucket expects 10000 with stdev ~95; allow 5 sigma.
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, 500);
  }
}

TEST(RngTest, UniformIntZeroBoundReturnsZero) {
  // Regression: bound == 0 fed the Lemire rejection threshold a division
  // by zero (SIGFPE on x86). The documented empty-range behavior is 0,
  // with no draw consumed.
  SubstreamRng rng(61);
  SubstreamRng control(61);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.UniformInt(0), 0u);
  }
  EXPECT_EQ(rng.Next(), control.Next());  // stream position untouched
}

TEST(RngTest, UniformDoubleInUnit) {
  SubstreamRng rng(19);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliEdgeCases) {
  SubstreamRng rng(23);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequency) {
  SubstreamRng rng(29);
  int ones = 0;
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.Bernoulli(0.3)) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / kDraws, 0.3, 0.01);
}

TEST(RngTest, CoinIsFair) {
  SubstreamRng rng(31);
  int heads = 0;
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.Coin()) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / kDraws, 0.5, 0.01);
}

TEST(RngTest, ForkProducesIndependentStream) {
  SubstreamRng a(37);
  SubstreamRng b = a.ForkSubstream();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace util
}  // namespace longdp
