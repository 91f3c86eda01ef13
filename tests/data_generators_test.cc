#include "data/generators.h"

#include <gtest/gtest.h>

#include <limits>

#include "query/cumulative_query.h"
#include "util/substream.h"
#include "util/thread_pool.h"

namespace longdp {
namespace data {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(GeneratorsTest, ExtremeAllOnes) {
  auto ds = ExtremeAllOnes(50, 6).value();
  for (int64_t t = 1; t <= 6; ++t) EXPECT_EQ(ds.Round(t).CountOnes(), 50);
}

TEST(GeneratorsTest, ExtremeAllZeros) {
  auto ds = ExtremeAllZeros(50, 6).value();
  for (int64_t t = 1; t <= 6; ++t) EXPECT_EQ(ds.Round(t).CountOnes(), 0);
}

TEST(GeneratorsTest, BernoulliValidatesP) {
  util::SubstreamRng rng(1, util::substream::kGeneric);
  EXPECT_FALSE(BernoulliIid(10, 3, -0.1, &rng).ok());
  EXPECT_FALSE(BernoulliIid(10, 3, 1.1, &rng).ok());
  EXPECT_FALSE(BernoulliIid(10, 3, kNan, &rng).ok());
  EXPECT_FALSE(BernoulliIid(10, 3, kNan, uint64_t{1}).ok());
}

TEST(GeneratorsTest, BernoulliRateClose) {
  util::SubstreamRng rng(2, util::substream::kGeneric);
  auto ds = BernoulliIid(20000, 4, 0.25, &rng).value();
  int64_t ones = 0;
  for (int64_t t = 1; t <= 4; ++t) ones += ds.Round(t).CountOnes();
  double rate = static_cast<double>(ones) /
                static_cast<double>(ds.num_users() * 4);
  EXPECT_NEAR(rate, 0.25, 0.01);
}

TEST(GeneratorsTest, MarkovValidation) {
  EXPECT_TRUE(ValidateMarkovParams({0.1, 0.05, 0.3}).ok());
  EXPECT_FALSE(ValidateMarkovParams({-0.1, 0.05, 0.3}).ok());
  EXPECT_FALSE(ValidateMarkovParams({0.1, 1.05, 0.3}).ok());
  EXPECT_FALSE(ValidateMarkovParams({0.1, 0.05, -0.3}).ok());
}

TEST(GeneratorsTest, MarkovAbsorbingStates) {
  util::SubstreamRng rng(3, util::substream::kGeneric);
  // entry=0, exit=0: everyone stays in the initial state forever.
  auto ds = TwoStateMarkov(5000, 8, {0.4, 0.0, 0.0}, &rng).value();
  for (int64_t i = 0; i < ds.num_users(); ++i) {
    int first = ds.Bit(i, 1);
    for (int64_t t = 2; t <= 8; ++t) {
      EXPECT_EQ(ds.Bit(i, t), first) << "user " << i;
    }
  }
}

TEST(GeneratorsTest, MarkovStationaryRate) {
  util::SubstreamRng rng(5, util::substream::kGeneric);
  // Start at the stationary rate entry/(entry+exit) = 0.2; the monthly rate
  // should stay near 0.2 at every t.
  MarkovParams p{0.2, 0.1, 0.4};
  auto ds = TwoStateMarkov(30000, 10, p, &rng).value();
  for (int64_t t = 1; t <= 10; ++t) {
    int64_t ones = 0;
    for (int64_t i = 0; i < ds.num_users(); ++i) ones += ds.Bit(i, t);
    double rate = static_cast<double>(ones) /
                  static_cast<double>(ds.num_users());
    EXPECT_NEAR(rate, 0.2, 0.015) << "t=" << t;
  }
}

TEST(GeneratorsTest, MixtureValidatesShares) {
  util::SubstreamRng rng(7, util::substream::kGeneric);
  std::vector<MixtureComponent> bad = {{0.5, {}}, {0.2, {}}};
  EXPECT_FALSE(SubpopulationMixture(100, 3, bad, &rng).ok());
  EXPECT_FALSE(SubpopulationMixture(100, 3, {}, &rng).ok());
  std::vector<MixtureComponent> negative = {{-0.5, {}}, {1.5, {}}};
  EXPECT_FALSE(SubpopulationMixture(100, 3, negative, &rng).ok());
  std::vector<MixtureComponent> nan_share = {{kNan, {}}, {1.0, {}}};
  EXPECT_FALSE(SubpopulationMixture(100, 3, nan_share, &rng).ok());
}

TEST(GeneratorsTest, MixtureComponentsBehaveDistinctly) {
  util::SubstreamRng rng(11, util::substream::kGeneric);
  // Component 0: always-in (share 0.3); component 1: always-out.
  std::vector<MixtureComponent> comps = {
      {0.3, {1.0, 1.0, 0.0}},
      {0.7, {0.0, 0.0, 1.0}},
  };
  auto ds = SubpopulationMixture(1000, 5, comps, &rng).value();
  auto frac =
      query::EvaluateCumulativeOnDataset(ds, 5, 5).value();
  EXPECT_NEAR(frac, 0.3, 0.001);
}

TEST(GeneratorsTest, DeterministicGivenSeed) {
  util::SubstreamRng a(13, util::substream::kGeneric);
  util::SubstreamRng b(13, util::substream::kGeneric);
  auto d1 = TwoStateMarkov(100, 6, {0.2, 0.1, 0.3}, &a).value();
  auto d2 = TwoStateMarkov(100, 6, {0.2, 0.1, 0.3}, &b).value();
  for (int64_t i = 0; i < 100; ++i) {
    for (int64_t t = 1; t <= 6; ++t) {
      ASSERT_EQ(d1.Bit(i, t), d2.Bit(i, t));
    }
  }
}

TEST(GeneratorsTest, KeyedOverloadsShardAndScheduleInvariant) {
  // The keyed generators draw user i's round-t randomness from substream
  // (seed, kDataset, t).Leaf(i): the dataset is a pure function of the
  // seed, identical at any thread or shard count.
  const MarkovParams p{0.2, 0.1, 0.3};
  auto serial = TwoStateMarkov(3000, 6, p, uint64_t{12345}).value();
  util::ThreadPool pool_a(2, 4);
  util::ThreadPool pool_b(8, 16);
  auto sharded4 = TwoStateMarkov(3000, 6, p, 12345, &pool_a).value();
  auto sharded16 = TwoStateMarkov(3000, 6, p, 12345, &pool_b).value();
  for (int64_t i = 0; i < 3000; ++i) {
    for (int64_t t = 1; t <= 6; ++t) {
      ASSERT_EQ(serial.Bit(i, t), sharded4.Bit(i, t))
          << "user " << i << " t " << t;
      ASSERT_EQ(serial.Bit(i, t), sharded16.Bit(i, t))
          << "user " << i << " t " << t;
    }
  }
}

TEST(GeneratorsTest, KeyedBernoulliRateAndSeedSensitivity) {
  auto ds = BernoulliIid(20000, 4, 0.25, uint64_t{777}).value();
  int64_t ones = 0;
  for (int64_t t = 1; t <= 4; ++t) ones += ds.Round(t).CountOnes();
  double rate = static_cast<double>(ones) /
                static_cast<double>(ds.num_users() * 4);
  EXPECT_NEAR(rate, 0.25, 0.01);
  // A different seed yields a different dataset.
  auto other = BernoulliIid(20000, 4, 0.25, uint64_t{778}).value();
  bool any_diff = false;
  for (int64_t i = 0; i < 20000 && !any_diff; ++i) {
    for (int64_t t = 1; t <= 4; ++t) {
      if (ds.Bit(i, t) != other.Bit(i, t)) { any_diff = true; break; }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(GeneratorsTest, KeyedMixtureValidatesShares) {
  std::vector<MixtureComponent> bad = {{0.5, {}}, {0.2, {}}};
  EXPECT_FALSE(SubpopulationMixture(100, 3, bad, uint64_t{1}).ok());
  EXPECT_FALSE(SubpopulationMixture(100, 3, {}, uint64_t{1}).ok());
  std::vector<MixtureComponent> nan_share = {{kNan, {}}, {1.0, {}}};
  EXPECT_FALSE(SubpopulationMixture(100, 3, nan_share, uint64_t{1}).ok());
}

// Parameterized sweep over Markov parameter corners.
struct MarkovCase {
  MarkovParams params;
  double expected_rate_t1;
};

class MarkovSweep : public ::testing::TestWithParam<MarkovCase> {};

TEST_P(MarkovSweep, InitialRateMatches) {
  util::SubstreamRng rng(17, util::substream::kGeneric);
  auto ds = TwoStateMarkov(20000, 3, GetParam().params, &rng).value();
  int64_t ones = 0;
  for (int64_t i = 0; i < ds.num_users(); ++i) ones += ds.Bit(i, 1);
  EXPECT_NEAR(static_cast<double>(ones) / 20000.0,
              GetParam().expected_rate_t1, 0.015);
}

INSTANTIATE_TEST_SUITE_P(
    Corners, MarkovSweep,
    ::testing::Values(MarkovCase{{0.0, 0.1, 0.1}, 0.0},
                      MarkovCase{{1.0, 0.1, 0.1}, 1.0},
                      MarkovCase{{0.5, 0.0, 0.0}, 0.5},
                      MarkovCase{{0.1, 0.9, 0.9}, 0.1}));

}  // namespace
}  // namespace data
}  // namespace longdp
