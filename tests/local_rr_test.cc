#include "local/randomized_response.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/generators.h"
#include "util/mathutil.h"
#include "util/substream.h"

namespace longdp {
namespace local {
namespace {

LocalFrequencyOracle::Options Opt(int64_t horizon, double epsilon,
                                  ReportStrategy strategy) {
  LocalFrequencyOracle::Options options;
  options.horizon = horizon;
  options.epsilon = epsilon;
  options.strategy = strategy;
  return options;
}

TEST(LocalRrTest, CreateValidates) {
  EXPECT_FALSE(LocalFrequencyOracle::Create(
                   Opt(0, 1.0, ReportStrategy::kFreshPerRound))
                   .ok());
  EXPECT_FALSE(LocalFrequencyOracle::Create(
                   Opt(5, 0.0, ReportStrategy::kFreshPerRound))
                   .ok());
  EXPECT_FALSE(
      LocalFrequencyOracle::Create(
          Opt(5, std::numeric_limits<double>::infinity(),
              ReportStrategy::kFreshPerRound))
          .ok());
  auto bad_flip = Opt(5, 1.0, ReportStrategy::kMemoized);
  bad_flip.flip_bound = 0;
  EXPECT_FALSE(LocalFrequencyOracle::Create(bad_flip).ok());
}

TEST(LocalRrTest, RandomizerCalibration) {
  // T = 10, epsilon = 10 -> eps0 = 1, p = e/(1+e).
  auto oracle = LocalFrequencyOracle::Create(
                    Opt(10, 10.0, ReportStrategy::kFreshPerRound))
                    .value();
  double e = std::exp(1.0);
  EXPECT_NEAR(oracle->per_report_epsilon(), 1.0, 1e-12);
  EXPECT_NEAR(oracle->flip_keep_prob(), e / (1.0 + e), 1e-12);
  EXPECT_NEAR(oracle->flip_keep_prob() + oracle->flip_lie_prob(), 1.0,
              1e-12);
  // The per-report mechanism is eps0-DP: p/q = e^eps0.
  EXPECT_NEAR(oracle->flip_keep_prob() / oracle->flip_lie_prob(), e, 1e-9);
}

TEST(LocalRrTest, MemoizedBudgetUsesFlipBound) {
  auto opt = Opt(100, 2.0, ReportStrategy::kMemoized);
  opt.flip_bound = 4;
  auto oracle = LocalFrequencyOracle::Create(opt).value();
  EXPECT_NEAR(oracle->per_report_epsilon(), 2.0 / 8.0, 1e-12);
}

TEST(LocalRrTest, EstimatesAreUnbiased) {
  const int64_t kN = 50000, kT = 4;
  util::SubstreamRng data_rng(1, util::substream::kLocal);
  auto ds = data::BernoulliIid(kN, kT, 0.3, &data_rng).value();
  auto oracle = LocalFrequencyOracle::Create(
                    Opt(kT, 8.0, ReportStrategy::kFreshPerRound))
                    .value();
  util::SubstreamRng rng(2, util::substream::kLocal);
  for (int64_t t = 1; t <= kT; ++t) {
    auto est = oracle->ObserveRound(ds.Round(t), &rng);
    ASSERT_TRUE(est.ok());
    double truth = static_cast<double>(ds.Round(t).CountOnes()) / kN;
    EXPECT_NEAR(est.value(), truth,
                5.0 * oracle->EstimateStddevBound(kN))
        << "t=" << t;
  }
}

TEST(LocalRrTest, RandomizerFlipRatesMatchCalibration) {
  // Statistical flip-rate check on the randomizer itself, not just the
  // debiased estimate: on an all-ones round the mean raw report is p =
  // Pr[report 1 | true 1], on an all-zeros round it is q = Pr[report 1 |
  // true 0]. Recover the raw report mean by re-biasing the oracle's
  // unbiased estimate and pin both rates to the calibrated values.
  const int64_t kN = 20000, kT = 20;
  auto oracle = LocalFrequencyOracle::Create(
                    Opt(kT, 20.0, ReportStrategy::kFreshPerRound))
                    .value();
  const double p = oracle->flip_keep_prob();
  const double q = oracle->flip_lie_prob();
  const auto ones =
      data::PackedRound::FromBytes(std::vector<uint8_t>(kN, 1)).value();
  const auto zeros =
      data::PackedRound::FromBytes(std::vector<uint8_t>(kN, 0)).value();
  util::SubstreamRng rng(0xF11B, util::substream::kLocal);
  util::MomentAccumulator keep_rate, lie_rate;
  for (int64_t t = 1; t <= kT; ++t) {
    // Alternate so both rates come from the same oracle instance.
    const bool odd = (t % 2) == 1;
    auto est = oracle->ObserveRound((odd ? ones : zeros).view(), &rng);
    ASSERT_TRUE(est.ok());
    const double mean_report = est.value() * (p - q) + q;
    (odd ? keep_rate : lie_rate).Add(mean_report);
  }
  // Each round's mean report averages kN Bernoulli(p or q) draws; five
  // standard errors over the kT/2 rounds is a generous gate.
  const double rounds = kT / 2.0;
  const double se_p = std::sqrt(p * (1.0 - p) / (kN * rounds));
  const double se_q = std::sqrt(q * (1.0 - q) / (kN * rounds));
  EXPECT_NEAR(keep_rate.mean(), p, 5.0 * se_p);
  EXPECT_NEAR(lie_rate.mean(), q, 5.0 * se_q);
}

TEST(LocalRrTest, MemoizedRepliesAreStable) {
  // With constant data, memoized reports never change, so the estimate is
  // identical every round.
  const int64_t kN = 2000, kT = 6;
  auto ds = data::ExtremeAllOnes(kN, kT).value();
  auto opt = Opt(kT, 2.0, ReportStrategy::kMemoized);
  auto oracle = LocalFrequencyOracle::Create(opt).value();
  util::SubstreamRng rng(3, util::substream::kLocal);
  double first = oracle->ObserveRound(ds.Round(1), &rng).value();
  for (int64_t t = 2; t <= kT; ++t) {
    EXPECT_DOUBLE_EQ(oracle->ObserveRound(ds.Round(t), &rng).value(), first);
  }
}

TEST(LocalRrTest, ErrorGrowsWithHorizonUnlikeCentral) {
  // The fresh-per-round oracle's per-report budget shrinks with T, so its
  // stddev bound grows ~linearly in T at fixed total epsilon — the local
  // model's poly(T) hit the central algorithms avoid.
  auto short_h = LocalFrequencyOracle::Create(
                     Opt(4, 2.0, ReportStrategy::kFreshPerRound))
                     .value();
  auto long_h = LocalFrequencyOracle::Create(
                    Opt(64, 2.0, ReportStrategy::kFreshPerRound))
                    .value();
  EXPECT_GT(long_h->EstimateStddevBound(10000),
            5.0 * short_h->EstimateStddevBound(10000));
}

TEST(LocalRrTest, InputValidationOnObserve) {
  auto oracle = LocalFrequencyOracle::Create(
                    Opt(2, 1.0, ReportStrategy::kFreshPerRound))
                    .value();
  util::SubstreamRng rng(5, util::substream::kLocal);
  const auto round = data::PackedRound::FromBytes({0, 1, 1}).value();
  ASSERT_TRUE(oracle->ObserveRound(round.view(), &rng).ok());
  const auto wrong = data::PackedRound::FromBytes({0, 1}).value();
  EXPECT_TRUE(
      oracle->ObserveRound(wrong.view(), &rng).status().IsInvalidArgument());
  // Entries other than 0/1 are refused at the packing edge.
  EXPECT_TRUE(
      data::PackedRound::FromBytes({0, 1, 2}).status().IsInvalidArgument());
  ASSERT_TRUE(oracle->ObserveRound(round.view(), &rng).ok());
  EXPECT_TRUE(
      oracle->ObserveRound(round.view(), &rng).status().IsOutOfRange());
}

TEST(LocalRrTest, StrategyNames) {
  EXPECT_STREQ(ReportStrategyName(ReportStrategy::kFreshPerRound),
               "fresh-per-round");
  EXPECT_STREQ(ReportStrategyName(ReportStrategy::kMemoized), "memoized");
}

}  // namespace
}  // namespace local
}  // namespace longdp
