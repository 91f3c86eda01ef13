#include "core/recompute_baseline.h"

#include <gtest/gtest.h>

#include <limits>

#include "data/generators.h"
#include "util/substream.h"

namespace longdp {
namespace core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

RecomputeBaseline::Options Opt(int64_t horizon, int k, double rho,
                               uint64_t seed = 0) {
  RecomputeBaseline::Options options;
  options.horizon = horizon;
  options.window_k = k;
  options.rho = rho;
  options.seed = seed;
  return options;
}

TEST(RecomputeBaselineTest, CreateValidates) {
  EXPECT_FALSE(RecomputeBaseline::Create(Opt(2, 3, 0.5)).ok());
  EXPECT_FALSE(RecomputeBaseline::Create(Opt(12, 3, 0.0)).ok());
  EXPECT_TRUE(RecomputeBaseline::Create(Opt(12, 3, 0.5)).ok());
}

TEST(RecomputeBaselineTest, NoReleaseBeforeK) {
  auto baseline = RecomputeBaseline::Create(Opt(6, 3, kInf)).value();
  const auto round =
      data::PackedRound::FromBytes(std::vector<uint8_t>(10, 1)).value();
  ASSERT_TRUE(baseline->ObserveRound(round.view()).ok());
  ASSERT_TRUE(baseline->ObserveRound(round.view()).ok());
  EXPECT_FALSE(baseline->has_release());
  ASSERT_TRUE(baseline->ObserveRound(round.view()).ok());
  EXPECT_TRUE(baseline->has_release());
}

TEST(RecomputeBaselineTest, ZeroNoiseMatchesTrueHistogram) {
  util::SubstreamRng rng(2, util::substream::kGeneric);
  auto ds = data::BernoulliIid(400, 8, 0.3, &rng).value();
  auto baseline = RecomputeBaseline::Create(Opt(8, 3, kInf)).value();
  for (int64_t t = 1; t <= 8; ++t) {
    ASSERT_TRUE(baseline->ObserveRound(ds.Round(t)).ok());
    if (t >= 3) {
      EXPECT_EQ(baseline->CurrentHistogram(),
                ds.WindowHistogram(t, 3).value());
    }
  }
  EXPECT_EQ(baseline->clamped_bins(), 0);
}

TEST(RecomputeBaselineTest, ChargesFullBudget) {
  util::SubstreamRng rng(3, util::substream::kGeneric);
  auto ds = data::BernoulliIid(300, 12, 0.3, &rng).value();
  auto baseline = RecomputeBaseline::Create(Opt(12, 3, 0.005, 3)).value();
  for (int64_t t = 1; t <= 12; ++t) {
    ASSERT_TRUE(baseline->ObserveRound(ds.Round(t)).ok());
  }
  EXPECT_NEAR(baseline->accountant().spent(), 0.005, 1e-12);
}

TEST(RecomputeBaselineTest, ClampsNegativeBinsWithoutPadding) {
  // All-zeros data concentrates everything in bin 000; the other bins have
  // true count 0 and will go negative under noise roughly half the time —
  // the failure Algorithm 1's padding prevents.
  auto ds = data::ExtremeAllZeros(100, 12).value();
  auto baseline = RecomputeBaseline::Create(Opt(12, 3, 0.005, 5)).value();
  for (int64_t t = 1; t <= 12; ++t) {
    ASSERT_TRUE(baseline->ObserveRound(ds.Round(t)).ok());
  }
  EXPECT_GT(baseline->clamped_bins(), 0);
}

TEST(RecomputeBaselineTest, PopulationFluctuatesAcrossReleases) {
  // Unlike Algorithm 1's constant n*, the baseline's synthetic population
  // jumps release to release — one face of the inconsistency the paper
  // describes.
  util::SubstreamRng rng(7, util::substream::kGeneric);
  auto ds = data::BernoulliIid(5000, 12, 0.3, &rng).value();
  auto baseline = RecomputeBaseline::Create(Opt(12, 3, 0.005, 7)).value();
  std::vector<int64_t> populations;
  for (int64_t t = 1; t <= 12; ++t) {
    ASSERT_TRUE(baseline->ObserveRound(ds.Round(t)).ok());
    if (baseline->has_release()) {
      populations.push_back(baseline->SyntheticPopulation());
    }
  }
  bool all_same = true;
  for (size_t i = 1; i < populations.size(); ++i) {
    if (populations[i] != populations[0]) all_same = false;
  }
  EXPECT_FALSE(all_same);
}

TEST(RecomputeBaselineTest, RejectsBadInputs) {
  auto baseline = RecomputeBaseline::Create(Opt(3, 2, kInf)).value();
  const auto round = data::PackedRound::FromBytes({0, 1}).value();
  ASSERT_TRUE(baseline->ObserveRound(round.view()).ok());
  // Entries other than 0/1 are refused at the packing edge.
  EXPECT_TRUE(data::PackedRound::FromBytes({0, 2}).status().IsInvalidArgument());
  const auto wrong = data::PackedRound::FromBytes({0, 1, 1}).value();
  EXPECT_TRUE(baseline->ObserveRound(wrong.view()).IsInvalidArgument());
  ASSERT_TRUE(baseline->ObserveRound(round.view()).ok());
  ASSERT_TRUE(baseline->ObserveRound(round.view()).ok());
  EXPECT_TRUE(baseline->ObserveRound(round.view()).IsOutOfRange());
}

}  // namespace
}  // namespace core
}  // namespace longdp
