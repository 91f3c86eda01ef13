#include "core/cumulative_synthesizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/limits.h"
#include "core/theory.h"
#include "data/generators.h"
#include "query/cumulative_query.h"
#include "stream/counter_factory.h"
#include "util/substream.h"

namespace longdp {
namespace core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

CumulativeSynthesizer::Options Opt(int64_t horizon, double rho,
                                   uint64_t seed = 0) {
  CumulativeSynthesizer::Options options;
  options.horizon = horizon;
  options.rho = rho;
  options.seed = seed;
  return options;
}

Status FeedDataset(CumulativeSynthesizer* synth,
                   const data::LongitudinalDataset& ds) {
  for (int64_t t = 1; t <= ds.rounds(); ++t) {
    LONGDP_RETURN_NOT_OK(synth->ObserveRound(ds.Round(t)));
  }
  return Status::OK();
}

TEST(CumulativeTest, CreateValidates) {
  EXPECT_FALSE(CumulativeSynthesizer::Create(Opt(0, 0.5)).ok());
  EXPECT_FALSE(CumulativeSynthesizer::Create(Opt(5, 0.0)).ok());
  EXPECT_TRUE(CumulativeSynthesizer::Create(Opt(5, kMinRho / 2))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(CumulativeSynthesizer::Create(Opt(5, 0.5)).ok());
  // The smallest budget still draws its (enormous) noise and releases.
  auto tiny = CumulativeSynthesizer::Create(Opt(4, kMinRho)).value();
  for (int t = 1; t <= 4; ++t) {
    ASSERT_TRUE(tiny->ObserveRound(std::vector<uint8_t>(100, 1)).ok());
  }
  // Weights up to T take bit_width(T) planes, at most kMaxPlanes = 16.
  EXPECT_EQ(kMaxHorizon, (int64_t{1} << 16) - 1);
  EXPECT_TRUE(CumulativeSynthesizer::Create(Opt(kMaxHorizon, 0.5)).ok());
  EXPECT_TRUE(CumulativeSynthesizer::Create(Opt(int64_t{1} << 16, 0.5))
                  .status()
                  .IsInvalidArgument());
}

TEST(CumulativeTest, BracedByteRoundSelectsTheByteOverload) {
  // The literal 0 of {0, 1} must not bind to RoundView's word pointer.
  auto synth = CumulativeSynthesizer::Create(Opt(2, kInf)).value();
  ASSERT_TRUE(synth->ObserveRound({0, 1}).ok());
  EXPECT_EQ(synth->population(), 2);
  EXPECT_TRUE(synth->ObserveRound({0, 2}).IsInvalidArgument());
}

TEST(CumulativeTest, ZeroNoiseReproducesTrueCounts) {
  util::SubstreamRng rng(1, util::substream::kGeneric);
  auto ds = data::BernoulliIid(400, 10, 0.3, &rng).value();
  auto synth = CumulativeSynthesizer::Create(Opt(10, kInf)).value();
  for (int64_t t = 1; t <= 10; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
    auto truth = ds.CumulativeCounts(t).value();
    EXPECT_EQ(synth->released_thresholds(), truth) << "t=" << t;
  }
}

TEST(CumulativeTest, FullGroupPromotionEveryRoundZeroNoise) {
  // All-ones input under zero noise makes zhat == group at b == t every
  // round: the ENTIRE weight-(t-1) group promotes. This is the stage-2
  // edge the batched partial shuffle must handle (its final bound-1 draw
  // is skipped); the synthetic records must come out all-ones.
  const int64_t kN = 50, kT = 6;
  auto synth = CumulativeSynthesizer::Create(Opt(kT, kInf)).value();
  const std::vector<uint8_t> ones(static_cast<size_t>(kN), 1);
  util::SubstreamRng rng(3, util::substream::kGeneric);
  for (int64_t t = 1; t <= kT; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ones).ok());
    auto counts = synth->SyntheticThresholdCounts();
    for (int64_t b = 0; b <= t; ++b) {
      EXPECT_EQ(counts[static_cast<size_t>(b)], kN) << "t=" << t;
    }
  }
  for (int64_t r = 0; r < kN; ++r) {
    for (int64_t t = 1; t <= kT; ++t) {
      ASSERT_EQ(synth->Bit(r, t), 1);
    }
  }
}

TEST(CumulativeTest, ZeroNoiseAnswersAreExactFractions) {
  util::SubstreamRng rng(2, util::substream::kGeneric);
  auto ds = data::BernoulliIid(500, 8, 0.4, &rng).value();
  auto synth = CumulativeSynthesizer::Create(Opt(8, kInf)).value();
  for (int64_t t = 1; t <= 8; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
    for (int64_t b = 0; b <= 8; ++b) {
      double truth = query::EvaluateCumulativeOnDataset(ds, t, b).value();
      EXPECT_DOUBLE_EQ(synth->Answer(b).value(), truth)
          << "t=" << t << " b=" << b;
    }
  }
}

TEST(CumulativeTest, SyntheticRecordsMatchReleasedCountsExactly) {
  // Invariant 4: #synthetic records with weight >= b equals Shat^t_b, even
  // under real noise.
  util::SubstreamRng rng(3, util::substream::kGeneric);
  auto ds = data::BernoulliIid(1000, 12, 0.25, &rng).value();
  auto synth = CumulativeSynthesizer::Create(Opt(12, 0.01, 3)).value();
  for (int64_t t = 1; t <= 12; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
    EXPECT_EQ(synth->SyntheticThresholdCounts(),
              synth->released_thresholds())
        << "t=" << t;
  }
}

TEST(CumulativeTest, ReleasedRowsAreMonotone) {
  // Invariant 3 at the synthesizer level.
  util::SubstreamRng rng(5, util::substream::kGeneric);
  auto ds = data::BernoulliIid(2000, 12, 0.15, &rng).value();
  auto synth = CumulativeSynthesizer::Create(Opt(12, 0.005, 5)).value();
  std::vector<int64_t> prev(13, 0);
  prev[0] = 2000;
  for (int64_t t = 1; t <= 12; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
    const auto& row = synth->released_thresholds();
    for (int64_t b = 1; b <= 12; ++b) {
      EXPECT_GE(row[b], prev[b]) << "t=" << t << " b=" << b;
      EXPECT_LE(row[b], prev[b - 1]) << "t=" << t << " b=" << b;
    }
    prev = row;
  }
}

TEST(CumulativeTest, SyntheticHistoriesAreAppendOnly) {
  util::SubstreamRng rng(7, util::substream::kGeneric);
  auto ds = data::BernoulliIid(300, 8, 0.3, &rng).value();
  auto synth = CumulativeSynthesizer::Create(Opt(8, 0.05, 7)).value();
  std::vector<std::vector<int>> prefixes(300);
  for (int64_t t = 1; t <= 8; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
    for (int64_t r = 0; r < 300; ++r) {
      auto& p = prefixes[static_cast<size_t>(r)];
      for (size_t j = 0; j < p.size(); ++j) {
        ASSERT_EQ(synth->Bit(r, static_cast<int64_t>(j + 1)), p[j])
            << "record " << r;
      }
      p.push_back(synth->Bit(r, t));
    }
  }
}

TEST(CumulativeTest, AccountantChargesExactlyRho) {
  util::SubstreamRng rng(11, util::substream::kGeneric);
  auto ds = data::BernoulliIid(200, 12, 0.3, &rng).value();
  auto synth = CumulativeSynthesizer::Create(Opt(12, 0.005, 11)).value();
  ASSERT_TRUE(FeedDataset(synth.get(), ds).ok());
  EXPECT_NEAR(synth->accountant().spent(), 0.005, 1e-12);
  EXPECT_EQ(synth->accountant().ledger().size(), 12u);
}

TEST(CumulativeTest, PopulationPreserved) {
  util::SubstreamRng rng(13, util::substream::kGeneric);
  auto ds = data::BernoulliIid(750, 6, 0.5, &rng).value();
  auto synth = CumulativeSynthesizer::Create(Opt(6, 0.05, 13)).value();
  ASSERT_TRUE(FeedDataset(synth.get(), ds).ok());
  EXPECT_EQ(synth->population(), 750);
  auto synth_ds = synth->ToDataset().value();
  EXPECT_EQ(synth_ds.num_users(), 750);
  EXPECT_EQ(synth_ds.rounds(), 6);
}

TEST(CumulativeTest, PackedHistoryIsTheDatasetsWordsWithCleanTails) {
  // n is not a word multiple: the last word of every round has tail lanes,
  // which must stay zero because the archive CRCs whole words.
  constexpr int64_t kN = 200, kT = 9;
  util::SubstreamRng rng(41, util::substream::kGeneric);
  auto ds = data::BernoulliIid(kN, kT, 0.45, &rng).value();
  auto synth = CumulativeSynthesizer::Create(Opt(kT, 0.5, 41)).value();
  ASSERT_TRUE(FeedDataset(synth.get(), ds).ok());
  auto panel = synth->ToDataset().value();
  ASSERT_EQ(panel.num_users(), kN);
  ASSERT_EQ(panel.rounds(), kT);
  for (int64_t t = 1; t <= kT; ++t) {
    const data::RoundView own = synth->Round(t);
    const data::RoundView copy = panel.Round(t);
    ASSERT_EQ(own.size(), kN);
    ASSERT_EQ(copy.num_words(), own.num_words());
    for (size_t w = 0; w < own.num_words(); ++w) {
      ASSERT_EQ(copy.words()[w], own.words()[w]) << "t=" << t << " w=" << w;
    }
    for (int64_t r = 0; r < kN; ++r) {
      ASSERT_EQ(synth->Bit(r, t),
                static_cast<int>((own.words()[r >> 6] >> (r & 63)) & 1))
          << "t=" << t << " r=" << r;
    }
    EXPECT_EQ(own.words()[own.num_words() - 1] >> (kN & 63), 0u)
        << "t=" << t;
  }
}

TEST(CumulativeTest, ToDatasetMatchesAnswers) {
  // The materialized dataset's cumulative fractions equal the released
  // answers at the final time.
  util::SubstreamRng rng(17, util::substream::kGeneric);
  auto ds = data::BernoulliIid(600, 9, 0.35, &rng).value();
  auto synth = CumulativeSynthesizer::Create(Opt(9, 0.02, 17)).value();
  ASSERT_TRUE(FeedDataset(synth.get(), ds).ok());
  auto synth_ds = synth->ToDataset().value();
  for (int64_t b = 0; b <= 9; ++b) {
    double from_ds =
        query::EvaluateCumulativeOnDataset(synth_ds, 9, b).value();
    EXPECT_DOUBLE_EQ(from_ds, synth->Answer(b).value()) << "b=" << b;
  }
}

TEST(CumulativeTest, ErrorWithinCorollaryBound) {
  // Corollary B.1 bound with generous multiples: the max fraction error
  // over (t, b) should rarely exceed alpha*.
  util::SubstreamRng rng(19, util::substream::kGeneric);
  auto ds = data::SubpopulationMixture(
                23374, 12,
                {{0.07, {0.92, 0.6, 0.04}}, {0.93, {0.035, 0.02, 0.45}}},
                &rng)
                .value();
  double alpha =
      theory::CumulativeFractionErrorBound(12, 0.005, 0.05, 23374).value();
  int violations = 0;
  const int kTrials = 10;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto synth =
        CumulativeSynthesizer::Create(
            Opt(12, 0.005, 19 + static_cast<uint64_t>(trial)))
            .value();
    double max_err = 0.0;
    for (int64_t t = 1; t <= 12; ++t) {
      ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
      for (int64_t b = 1; b <= t; ++b) {
        double truth =
            query::EvaluateCumulativeOnDataset(ds, t, b).value();
        max_err = std::max(max_err,
                           std::fabs(synth->Answer(b).value() - truth));
      }
    }
    if (max_err > alpha) ++violations;
  }
  EXPECT_LE(violations, 2);
}

TEST(CumulativeTest, WorksWithAllCounterImplementations) {
  util::SubstreamRng rng(23, util::substream::kGeneric);
  auto ds = data::BernoulliIid(500, 8, 0.3, &rng).value();
  for (const auto& name : stream::RegisteredCounterNames()) {
    auto options = Opt(8, 0.05, 23);
    options.counter_factory = stream::MakeCounterFactory(name).value();
    auto synth = CumulativeSynthesizer::Create(options).value();
    ASSERT_TRUE(FeedDataset(synth.get(), ds).ok()) << name;
    EXPECT_EQ(synth->SyntheticThresholdCounts(),
              synth->released_thresholds())
        << name;
  }
}

TEST(CumulativeTest, UniformSplitAlsoWorks) {
  util::SubstreamRng rng(29, util::substream::kGeneric);
  auto ds = data::BernoulliIid(400, 10, 0.2, &rng).value();
  auto options = Opt(10, 0.01, 29);
  options.split = stream::BudgetSplit::kUniform;
  auto synth = CumulativeSynthesizer::Create(options).value();
  ASSERT_TRUE(FeedDataset(synth.get(), ds).ok());
  EXPECT_NEAR(synth->accountant().spent(), 0.01, 1e-12);
}

TEST(CumulativeTest, RejectsBadInputs) {
  auto synth = CumulativeSynthesizer::Create(Opt(2, kInf)).value();
  util::SubstreamRng rng(31, util::substream::kGeneric);
  std::vector<uint8_t> round = {0, 1, 0};
  ASSERT_TRUE(synth->ObserveRound(round).ok());
  std::vector<uint8_t> wrong_size = {0, 1};
  EXPECT_TRUE(synth->ObserveRound(wrong_size).IsInvalidArgument());
  std::vector<uint8_t> bad_bit = {0, 1, 7};
  EXPECT_TRUE(synth->ObserveRound(bad_bit).IsInvalidArgument());
  ASSERT_TRUE(synth->ObserveRound(round).ok());
  EXPECT_TRUE(synth->ObserveRound(round).IsOutOfRange());
}

TEST(CumulativeTest, AnswerValidation) {
  auto synth = CumulativeSynthesizer::Create(Opt(3, kInf)).value();
  EXPECT_TRUE(synth->Answer(1).status().IsFailedPrecondition());
  util::SubstreamRng rng(37, util::substream::kGeneric);
  std::vector<uint8_t> round = {1, 0};
  ASSERT_TRUE(synth->ObserveRound(round).ok());
  EXPECT_TRUE(synth->Answer(-1).status().IsOutOfRange());
  EXPECT_TRUE(synth->Answer(4).status().IsOutOfRange());
  EXPECT_DOUBLE_EQ(synth->Answer(0).value(), 1.0);
}

// Parameterized horizon sweep: invariants hold across stream lengths.
class CumulativeHorizonTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(CumulativeHorizonTest, InvariantsAcrossHorizons) {
  const int64_t kT = GetParam();
  util::SubstreamRng rng(41 + static_cast<uint64_t>(kT), util::substream::kGeneric);
  auto ds = data::BernoulliIid(200, kT, 0.3, &rng).value();
  auto synth = CumulativeSynthesizer::Create(Opt(kT, 0.05, 41 + static_cast<uint64_t>(kT))).value();
  for (int64_t t = 1; t <= kT; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
    ASSERT_EQ(synth->SyntheticThresholdCounts(),
              synth->released_thresholds());
  }
  EXPECT_NEAR(synth->accountant().spent(), 0.05, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Horizons, CumulativeHorizonTest,
                         ::testing::Values(1, 2, 3, 5, 12, 16, 25));

}  // namespace
}  // namespace core
}  // namespace longdp
