#include "core/fixed_window_synthesizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/limits.h"
#include "core/theory.h"
#include "data/generators.h"
#include "query/window_query.h"
#include "util/substream.h"

namespace longdp {
namespace core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

FixedWindowSynthesizer::Options Opt(int64_t horizon, int k, double rho,
                                    int64_t npad = -1, uint64_t seed = 0) {
  FixedWindowSynthesizer::Options options;
  options.horizon = horizon;
  options.window_k = k;
  options.rho = rho;
  options.npad = npad;
  options.seed = seed;
  return options;
}

Status FeedDataset(FixedWindowSynthesizer* synth,
                   const data::LongitudinalDataset& ds, int64_t upto = -1) {
  if (upto < 0) upto = ds.rounds();
  for (int64_t t = 1; t <= upto; ++t) {
    LONGDP_RETURN_NOT_OK(synth->ObserveRound(ds.Round(t)));
  }
  return Status::OK();
}

TEST(FixedWindowTest, CreateValidates) {
  EXPECT_FALSE(FixedWindowSynthesizer::Create(Opt(2, 3, 0.5)).ok());
  EXPECT_FALSE(FixedWindowSynthesizer::Create(Opt(12, 0, 0.5)).ok());
  EXPECT_FALSE(FixedWindowSynthesizer::Create(Opt(12, 3, 0.0)).ok());
  EXPECT_TRUE(FixedWindowSynthesizer::Create(Opt(12, 3, kMinRho / 2))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(FixedWindowSynthesizer::Create(Opt(12, 3, kMinRho)).ok());
  EXPECT_TRUE(FixedWindowSynthesizer::Create(Opt(12, 3, 0.5)).ok());
  EXPECT_TRUE(FixedWindowSynthesizer::Create(Opt(40, kMaxPlanes + 1, 0.5))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(FixedWindowSynthesizer::Create(Opt(kMaxHorizon, 3, 0.5)).ok());
  EXPECT_TRUE(FixedWindowSynthesizer::Create(Opt(kMaxHorizon + 1, 3, 0.5))
                  .status()
                  .IsInvalidArgument());
}

TEST(FixedWindowTest, OversizedInitialCensusIsRefusedBeforeAllocating) {
  // At kMinRho a width-8 window's padded, noisy census totals billions of
  // records, past the 2^32 - 1 a checkpoint can hold. The first release
  // refuses it instead of allocating the cohort.
  auto synth = FixedWindowSynthesizer::Create(Opt(100, 8, kMinRho)).value();
  const std::vector<uint8_t> round(100, 1);
  for (int t = 1; t < 8; ++t) ASSERT_TRUE(synth->ObserveRound(round).ok());
  EXPECT_TRUE(synth->ObserveRound(round).IsOutOfRange());
  EXPECT_FALSE(synth->has_release());
}

TEST(FixedWindowTest, AutoNpadUsesTheoryFormula) {
  auto synth = FixedWindowSynthesizer::Create(Opt(12, 3, 0.005)).value();
  auto expected = theory::RecommendedNpad(12, 3, 0.005, 0.05).value();
  EXPECT_EQ(synth->npad(), expected);
}

TEST(FixedWindowTest, ExplicitNpadRespected) {
  auto synth =
      FixedWindowSynthesizer::Create(Opt(12, 3, 0.005, 123)).value();
  EXPECT_EQ(synth->npad(), 123);
}

TEST(FixedWindowTest, NoReleaseBeforeK) {
  auto synth = FixedWindowSynthesizer::Create(Opt(12, 3, kInf, 0)).value();
  std::vector<uint8_t> round(10, 1);
  ASSERT_TRUE(synth->ObserveRound(round).ok());
  EXPECT_FALSE(synth->has_release());
  ASSERT_TRUE(synth->ObserveRound(round).ok());
  EXPECT_FALSE(synth->has_release());
  ASSERT_TRUE(synth->ObserveRound(round).ok());
  EXPECT_TRUE(synth->has_release());
}

TEST(FixedWindowTest, ZeroNoiseReproducesTrueHistograms) {
  // With rho = infinity and npad = 0 the synthetic histogram equals the
  // true window histogram at every step (invariant 6 specialized to bins).
  util::SubstreamRng rng(2, util::substream::kGeneric);
  auto ds = data::BernoulliIid(500, 10, 0.3, &rng).value();
  auto synth = FixedWindowSynthesizer::Create(Opt(10, 3, kInf, 0)).value();
  for (int64_t t = 1; t <= 10; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
    if (t >= 3) {
      EXPECT_EQ(synth->SyntheticHistogram(),
                ds.WindowHistogram(t, 3).value());
    }
  }
}

TEST(FixedWindowTest, ZeroNoiseReproducesTrueHistogramsAtPlaneCap) {
  // k = 16 fills every plane the bit-plane histogram kernel takes.
  util::SubstreamRng rng(16, util::substream::kGeneric);
  auto ds = data::BernoulliIid(200, 18, 0.5, &rng).value();
  auto synth =
      FixedWindowSynthesizer::Create(Opt(18, kMaxPlanes, kInf, 0)).value();
  for (int64_t t = 1; t <= 18; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
    if (t >= kMaxPlanes) {
      EXPECT_EQ(synth->SyntheticHistogram(),
                ds.WindowHistogram(t, kMaxPlanes).value())
          << "t=" << t;
    }
  }
}

TEST(FixedWindowTest, ZeroNoiseDebiasedAnswersAreExact) {
  util::SubstreamRng rng(3, util::substream::kGeneric);
  auto ds = data::BernoulliIid(800, 8, 0.25, &rng).value();
  // Nonzero padding but no noise: debiasing must recover exact truth.
  auto synth = FixedWindowSynthesizer::Create(Opt(8, 3, kInf, 40)).value();
  auto preds = {query::MakeAtLeastOnes(3, 1), query::MakeAtLeastOnes(3, 2),
                query::MakeConsecutiveOnes(3, 2), query::MakeAllOnes(3)};
  for (int64_t t = 1; t <= 8; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
    if (t < 3) continue;
    for (const auto& pred : preds) {
      double truth = query::EvaluateOnDataset(*pred, ds, t).value();
      double estimate = synth->DebiasedAnswer(*pred).value();
      EXPECT_NEAR(estimate, truth, 1e-12)
          << "t=" << t << " pred=" << pred->name();
    }
  }
}

TEST(FixedWindowTest, ConsistencyConstraintHoldsEveryStep) {
  // Invariant 1: p^t_{z0} + p^t_{z1} == p^{t-1}_{0z} + p^{t-1}_{1z}, under
  // real noise.
  util::SubstreamRng rng(5, util::substream::kGeneric);
  auto ds = data::BernoulliIid(2000, 12, 0.2, &rng).value();
  auto synth = FixedWindowSynthesizer::Create(Opt(12, 3, 0.01, -1, 5)).value();
  std::vector<int64_t> prev;
  for (int64_t t = 1; t <= 12; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
    if (!synth->has_release()) continue;
    auto cur = synth->SyntheticHistogram();
    if (!prev.empty()) {
      for (util::Pattern z = 0; z < 4; ++z) {
        int64_t lhs = cur[(z << 1)] + cur[(z << 1) | 1];
        int64_t rhs = prev[z] + prev[z | 4];
        EXPECT_EQ(lhs, rhs) << "t=" << t << " z=" << z;
      }
    }
    prev = cur;
  }
}

TEST(FixedWindowTest, PopulationConstantOverTime) {
  util::SubstreamRng rng(7, util::substream::kGeneric);
  auto ds = data::BernoulliIid(1500, 10, 0.4, &rng).value();
  auto synth = FixedWindowSynthesizer::Create(Opt(10, 3, 0.02, -1, 7)).value();
  int64_t population = -1;
  for (int64_t t = 1; t <= 10; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
    if (!synth->has_release()) continue;
    if (population < 0) {
      population = synth->cohort().num_records();
    } else {
      EXPECT_EQ(synth->cohort().num_records(), population) << "t=" << t;
    }
  }
  // n* should be near n + 2^k * npad.
  int64_t expected = 1500 + 8 * synth->npad();
  EXPECT_NEAR(static_cast<double>(population), static_cast<double>(expected),
              6.0 * std::sqrt(8.0 * synth->sigma2()));
}

TEST(FixedWindowTest, AccountantChargesExactlyRho) {
  util::SubstreamRng rng(11, util::substream::kGeneric);
  auto ds = data::BernoulliIid(300, 12, 0.3, &rng).value();
  auto synth = FixedWindowSynthesizer::Create(Opt(12, 3, 0.005, -1, 11)).value();
  ASSERT_TRUE(FeedDataset(synth.get(), ds).ok());
  EXPECT_NEAR(synth->accountant().spent(), 0.005, 1e-12);
  EXPECT_EQ(synth->stats().releases, 10);  // T - k + 1
  EXPECT_EQ(synth->accountant().ledger().size(), 10u);
}

TEST(FixedWindowTest, RejectsPastHorizonAndChangedPopulation) {
  auto synth = FixedWindowSynthesizer::Create(Opt(3, 2, kInf, 0)).value();
  std::vector<uint8_t> round(5, 0);
  ASSERT_TRUE(synth->ObserveRound(round).ok());
  std::vector<uint8_t> wrong(6, 0);
  EXPECT_TRUE(synth->ObserveRound(wrong).IsInvalidArgument());
  ASSERT_TRUE(synth->ObserveRound(round).ok());
  ASSERT_TRUE(synth->ObserveRound(round).ok());
  EXPECT_TRUE(synth->ObserveRound(round).IsOutOfRange());
}

TEST(FixedWindowTest, RejectsNonBinaryInput) {
  auto synth = FixedWindowSynthesizer::Create(Opt(3, 2, kInf, 0)).value();
  std::vector<uint8_t> bad = {0, 2, 1};
  EXPECT_TRUE(synth->ObserveRound(bad).IsInvalidArgument());
}

TEST(FixedWindowTest, QueriesBeforeReleaseFail) {
  auto synth = FixedWindowSynthesizer::Create(Opt(5, 3, kInf, 0)).value();
  auto pred = query::MakeAllOnes(3);
  EXPECT_TRUE(synth->SyntheticCount(*pred).status().IsFailedPrecondition());
}

TEST(FixedWindowTest, PaddingKeepsCountsNonNegativeWithHighProbability) {
  // With the recommended npad, a full run over the all-ones dataset (the
  // worst case for bins at zero) should virtually never clamp.
  auto ds = data::ExtremeAllOnes(25000, 12).value();
  int total_clamps = 0;
  for (int trial = 0; trial < 5; ++trial) {
    auto synth =
        FixedWindowSynthesizer::Create(
            Opt(12, 3, 0.005, -1, 19 + static_cast<uint64_t>(trial)))
            .value();
    ASSERT_TRUE(FeedDataset(synth.get(), ds).ok());
    total_clamps += static_cast<int>(synth->stats().negative_clamps);
  }
  EXPECT_EQ(total_clamps, 0);
}

TEST(FixedWindowTest, ErrorWithinTheoremBound) {
  // Theorem 3.2: max bin-count error <= lambda with prob >= 1 - beta. Check
  // empirically across repetitions on extreme data.
  auto ds = data::ExtremeAllOnes(25000, 12).value();
  const double kBeta = 0.05;
  double lambda =
      theory::MaxBinCountErrorBound(12, 3, 0.005, kBeta).value();
  int violations = 0;
  const int kTrials = 40;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto synth =
        FixedWindowSynthesizer::Create(
            Opt(12, 3, 0.005, -1, 23 + static_cast<uint64_t>(trial)))
            .value();
    bool violated = false;
    for (int64_t t = 1; t <= 12; ++t) {
      ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
      if (!synth->has_release()) continue;
      auto hist = synth->SyntheticHistogram();
      auto truth = ds.WindowHistogram(t, 3).value();
      for (util::Pattern s = 0; s < 8; ++s) {
        double err = std::fabs(static_cast<double>(
            hist[s] - (truth[s] + synth->npad())));
        if (err > lambda) violated = true;
      }
    }
    if (violated) ++violations;
  }
  EXPECT_LE(violations, static_cast<int>(kTrials * kBeta * 3) + 1);
}

TEST(FixedWindowTest, PackedHistoryIsTheDatasetsWordsWithCleanTails) {
  // Padded (npad > 0) so m = n + noise + 2^k * npad is not a word
  // multiple: the last word of every round has tail lanes, which must stay
  // zero because the archive CRCs whole words.
  util::SubstreamRng rng(31, util::substream::kGeneric);
  auto ds = data::BernoulliIid(300, 10, 0.4, &rng).value();
  auto synth = FixedWindowSynthesizer::Create(Opt(10, 3, 1.0, 5, 31)).value();
  ASSERT_TRUE(FeedDataset(synth.get(), ds).ok());
  const SyntheticCohort& cohort = synth->cohort();
  const int64_t m = cohort.num_records();
  ASSERT_NE(m % 64, 0) << "m=" << m;
  auto panel = cohort.ToDataset(10).value();
  ASSERT_EQ(panel.num_users(), m);
  ASSERT_EQ(panel.rounds(), 10);
  for (int64_t t = 1; t <= 10; ++t) {
    const data::RoundView own = cohort.Round(t);
    const data::RoundView copy = panel.Round(t);
    ASSERT_EQ(own.size(), m);
    ASSERT_EQ(copy.num_words(), own.num_words());
    for (size_t w = 0; w < own.num_words(); ++w) {
      ASSERT_EQ(copy.words()[w], own.words()[w]) << "t=" << t << " w=" << w;
    }
    for (int64_t r = 0; r < m; ++r) {
      ASSERT_EQ(cohort.Bit(r, t),
                static_cast<int>((own.words()[r >> 6] >> (r & 63)) & 1))
          << "t=" << t << " r=" << r;
    }
    EXPECT_EQ(own.words()[own.num_words() - 1] >> (m & 63), 0u) << "t=" << t;
  }
}

TEST(FixedWindowTest, RecordsPersistAcrossReleases) {
  // Invariant 2 at the synthesizer level: prefixes never change.
  util::SubstreamRng rng(29, util::substream::kGeneric);
  auto ds = data::BernoulliIid(400, 8, 0.3, &rng).value();
  auto synth = FixedWindowSynthesizer::Create(Opt(8, 3, 0.05, -1, 29)).value();
  std::vector<std::vector<int>> prefixes;
  for (int64_t t = 1; t <= 8; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
    if (!synth->has_release()) continue;
    const auto& cohort = synth->cohort();
    if (prefixes.empty()) {
      prefixes.resize(static_cast<size_t>(cohort.num_records()));
    }
    for (int64_t r = 0; r < cohort.num_records(); ++r) {
      auto& p = prefixes[static_cast<size_t>(r)];
      for (size_t j = 0; j < p.size(); ++j) {
        ASSERT_EQ(cohort.Bit(r, static_cast<int64_t>(j + 1)),
                  p[j]);
      }
      while (p.size() < static_cast<size_t>(cohort.rounds())) {
        p.push_back(cohort.Bit(r, static_cast<int64_t>(p.size() + 1)));
      }
    }
  }
}

// Parameterized sweep over (T, k): zero-noise exactness holds for every
// shape, including k = 1 and k = T edges.
struct ShapeCase {
  int64_t horizon;
  int k;
};

class FixedWindowShapeTest : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(FixedWindowShapeTest, ZeroNoiseExactHistograms) {
  const auto& shape = GetParam();
  util::SubstreamRng rng(31 + static_cast<uint64_t>(shape.horizon * 10 + shape.k), util::substream::kGeneric);
  auto ds = data::BernoulliIid(200, shape.horizon, 0.5, &rng).value();
  auto synth =
      FixedWindowSynthesizer::Create(Opt(shape.horizon, shape.k, kInf, 0))
          .value();
  for (int64_t t = 1; t <= shape.horizon; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
    if (t >= shape.k) {
      EXPECT_EQ(synth->SyntheticHistogram(),
                ds.WindowHistogram(t, shape.k).value())
          << "T=" << shape.horizon << " k=" << shape.k << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FixedWindowShapeTest,
    ::testing::Values(ShapeCase{4, 1}, ShapeCase{4, 4}, ShapeCase{12, 3},
                      ShapeCase{12, 2}, ShapeCase{12, 5}, ShapeCase{7, 3},
                      ShapeCase{20, 4}));

}  // namespace
}  // namespace core
}  // namespace longdp
