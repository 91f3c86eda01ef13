// Statistical property tests for the synthesizers — the distributional
// claims of the paper's analysis, checked over many repetitions:
//
//  * Theorem 3.2's key structural fact: the per-bin error of Algorithm 1 is
//    mean-zero with (approximately) TIME-UNIFORM variance — the noise does
//    not accumulate across update steps despite the incremental
//    projections.
//  * Determinism: identical seeds produce identical synthetic cohorts.
//  * Unbiasedness of debiased answers and of Algorithm 2's released
//    fractions.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/categorical_synthesizer.h"
#include "core/cumulative_synthesizer.h"
#include "core/fixed_window_synthesizer.h"
#include "data/generators.h"
#include "query/cumulative_query.h"
#include "query/window_query.h"
#include "util/batch_sampler.h"
#include "util/mathutil.h"
#include "util/substream.h"

namespace longdp {
namespace core {
namespace {

TEST(StatisticalTest, FixedWindowErrorIsTimeUniform) {
  // Collect the error of one fixed bin at the first release (t = k) and at
  // the last (t = T) over many runs; Theorem 3.2 says both are mean-zero
  // with the same variance sigma^2 = (T-k+1)/(2 rho) (plus the bounded
  // rounding term).
  const int64_t kN = 2000, kT = 12;
  const int kK = 3;
  const double kRho = 0.05;
  const int kTrials = 1200;
  util::SubstreamRng data_rng(1, util::substream::kGeneric);
  auto ds = data::BernoulliIid(kN, kT, 0.5, &data_rng).value();
  auto truth_first = ds.WindowHistogram(kK, kK).value();
  auto truth_last = ds.WindowHistogram(kT, kK).value();

  util::MomentAccumulator first, last;
  const util::Pattern kBin = 0b010;
  for (int trial = 0; trial < kTrials; ++trial) {
    FixedWindowSynthesizer::Options opt;
    opt.horizon = kT;
    opt.window_k = kK;
    opt.rho = kRho;
    opt.seed = 1000 + static_cast<uint64_t>(trial);
    auto synth = FixedWindowSynthesizer::Create(opt).value();
    for (int64_t t = 1; t <= kT; ++t) {
      ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
      if (t == kK) {
        first.Add(static_cast<double>(
            synth->SyntheticHistogram()[kBin] -
            (truth_first[kBin] + synth->npad())));
      }
      if (t == kT) {
        last.Add(static_cast<double>(
            synth->SyntheticHistogram()[kBin] -
            (truth_last[kBin] + synth->npad())));
      }
    }
  }
  const double sigma2 = (kT - kK + 1) / (2.0 * kRho);
  // Mean zero within 5 standard errors.
  EXPECT_NEAR(first.mean(), 0.0, 5.0 * std::sqrt(sigma2 / kTrials));
  EXPECT_NEAR(last.mean(), 0.0, 5.0 * std::sqrt(sigma2 / kTrials));
  // Variance at the last step within 25% of the first step's (both should
  // be ~sigma^2; tolerance covers sampling noise of a variance estimate).
  EXPECT_NEAR(last.variance(), first.variance(), 0.25 * first.variance());
  EXPECT_NEAR(first.variance(), sigma2, 0.25 * sigma2);
}

TEST(StatisticalTest, FixedWindowDeterministicGivenSeed) {
  const int64_t kN = 300, kT = 8;
  util::SubstreamRng data_rng(3, util::substream::kGeneric);
  auto ds = data::BernoulliIid(kN, kT, 0.3, &data_rng).value();
  auto run = [&](uint64_t seed) {
    FixedWindowSynthesizer::Options opt;
    opt.horizon = kT;
    opt.window_k = 3;
    opt.rho = 0.01;
    opt.seed = seed;
    auto synth = FixedWindowSynthesizer::Create(opt).value();
    for (int64_t t = 1; t <= kT; ++t) {
      EXPECT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
    }
    return synth->cohort().ToDataset(kT).value();
  };
  auto a = run(99);
  auto b = run(99);
  ASSERT_EQ(a.num_users(), b.num_users());
  for (int64_t r = 0; r < a.num_users(); ++r) {
    for (int64_t t = 1; t <= a.rounds(); ++t) {
      ASSERT_EQ(a.Bit(r, t), b.Bit(r, t));
    }
  }
  // A different seed gives a different cohort (overwhelmingly likely).
  auto c = run(100);
  bool any_diff = c.num_users() != a.num_users();
  if (!any_diff) {
    for (int64_t r = 0; r < a.num_users() && !any_diff; ++r) {
      for (int64_t t = 1; t <= a.rounds() && !any_diff; ++t) {
        any_diff = a.Bit(r, t) != c.Bit(r, t);
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(StatisticalTest, DebiasedAnswersUnbiasedOverRuns) {
  const int64_t kN = 3000, kT = 10;
  const double kRho = 0.02;
  const int kTrials = 800;
  util::SubstreamRng data_rng(5, util::substream::kGeneric);
  auto ds = data::TwoStateMarkov(kN, kT, {0.15, 0.05, 0.3}, &data_rng)
                .value();
  auto pred = query::MakeConsecutiveOnes(3, 2);
  double truth = query::EvaluateOnDataset(*pred, ds, kT).value();

  util::MomentAccumulator acc;
  for (int trial = 0; trial < kTrials; ++trial) {
    FixedWindowSynthesizer::Options opt;
    opt.horizon = kT;
    opt.window_k = 3;
    opt.rho = kRho;
    opt.seed = 40000 + static_cast<uint64_t>(trial);
    auto synth = FixedWindowSynthesizer::Create(opt).value();
    for (int64_t t = 1; t <= kT; ++t) {
      ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
    }
    acc.Add(synth->DebiasedAnswer(*pred).value());
  }
  double se = acc.stddev() / std::sqrt(static_cast<double>(kTrials));
  EXPECT_NEAR(acc.mean(), truth, 5.0 * se + 1e-5);
}

TEST(StatisticalTest, CumulativeAnswersUnbiasedMidStream) {
  // Check unbiasedness at an interior time (t = 7), not only at T, since
  // monotonization could in principle introduce drift.
  const int64_t kN = 3000, kT = 12;
  const double kRho = 0.02;
  const int kTrials = 800;
  util::SubstreamRng data_rng(11, util::substream::kGeneric);
  auto ds = data::TwoStateMarkov(kN, kT, {0.12, 0.04, 0.35}, &data_rng)
                .value();
  double truth = query::EvaluateCumulativeOnDataset(ds, 7, 2).value();

  util::MomentAccumulator acc;
  for (int trial = 0; trial < kTrials; ++trial) {
    CumulativeSynthesizer::Options opt;
    opt.horizon = kT;
    opt.rho = kRho;
    opt.seed = 50000 + static_cast<uint64_t>(trial);
    auto synth = CumulativeSynthesizer::Create(opt).value();
    for (int64_t t = 1; t <= 7; ++t) {
      ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
    }
    acc.Add(synth->Answer(2).value());
  }
  double se = acc.stddev() / std::sqrt(static_cast<double>(kTrials));
  // Monotonization clamps rarely at this rho/n, so bias should be tiny.
  EXPECT_NEAR(acc.mean(), truth, 5.0 * se + 5e-5);
}

TEST(StatisticalTest, CumulativePromotionsArePermutationInvariant) {
  // Promotion selections must depend on records only through their weight
  // groups: relabeling the records of the input dataset permutes WHICH
  // synthetic records get promoted, but the released threshold rows and
  // the synthetic count distribution must be IDENTICAL for every seed
  // (stage 1's increment histogram is relabeling-invariant, so the bank —
  // and hence stage 2's targets — sees the same stream). A sampler that
  // peeked at record identity (e.g. an index-dependent bias in the batched
  // shuffle) would break this across seeds.
  const int64_t kN = 300, kT = 10;
  util::SubstreamRng data_rng(23, util::substream::kGeneric);
  auto ds = data::TwoStateMarkov(kN, kT, {0.2, 0.05, 0.3}, &data_rng).value();

  // Record relabeling: record r of the permuted dataset is record perm[r].
  std::vector<int64_t> perm(static_cast<size_t>(kN));
  for (int64_t r = 0; r < kN; ++r) perm[static_cast<size_t>(r)] = r;
  util::SubstreamRng perm_rng(29, util::substream::kGeneric);
  util::BatchSampler(&perm_rng).Shuffle(&perm);
  auto permuted = data::LongitudinalDataset::Create(kN, kT).value();
  for (int64_t t = 1; t <= kT; ++t) {
    std::vector<uint8_t> bits(static_cast<size_t>(kN));
    auto round = ds.Round(t);
    for (int64_t r = 0; r < kN; ++r) {
      bits[static_cast<size_t>(r)] = static_cast<uint8_t>(
          round.bit(perm[static_cast<size_t>(r)]));
    }
    ASSERT_TRUE(permuted.AppendRound(bits).ok());
  }

  auto run = [&](const data::LongitudinalDataset& data, uint64_t seed) {
    CumulativeSynthesizer::Options opt;
    opt.horizon = kT;
    opt.rho = 0.05;
    opt.seed = seed;
    auto synth = CumulativeSynthesizer::Create(opt).value();
    std::vector<std::vector<int64_t>> released;
    for (int64_t t = 1; t <= kT; ++t) {
      EXPECT_TRUE(synth->ObserveRound(data.Round(t)).ok());
      released.push_back(synth->released_thresholds());
    }
    released.push_back(synth->SyntheticThresholdCounts());
    return released;
  };

  for (uint64_t seed = 0; seed < 64; ++seed) {
    auto original_log = run(ds, 1000 + seed);
    auto permuted_log = run(permuted, 1000 + seed);
    ASSERT_EQ(original_log, permuted_log) << "seed=" << seed;
  }
}

TEST(StatisticalTest, RoundingTermsAreFair) {
  // The +-1/2 rounding draws must not introduce drift: over a long run on
  // symmetric data, the net difference between "extend by 1" and the
  // noisy-count target stays mean-zero. Proxy: the synthetic count of the
  // all-ones bin stays centered on truth + npad.
  const int64_t kN = 1000, kT = 16;
  const double kRho = 0.1;
  const int kTrials = 600;
  util::SubstreamRng data_rng(17, util::substream::kGeneric);
  auto ds = data::BernoulliIid(kN, kT, 0.5, &data_rng).value();
  util::MomentAccumulator acc;
  for (int trial = 0; trial < kTrials; ++trial) {
    FixedWindowSynthesizer::Options opt;
    opt.horizon = kT;
    opt.window_k = 2;
    opt.rho = kRho;
    opt.seed = 60000 + static_cast<uint64_t>(trial);
    auto synth = FixedWindowSynthesizer::Create(opt).value();
    for (int64_t t = 1; t <= kT; ++t) {
      ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
    }
    auto truth = ds.WindowHistogram(kT, 2).value();
    acc.Add(static_cast<double>(synth->SyntheticHistogram()[0b11] -
                                (truth[0b11] + synth->npad())));
  }
  double sigma2 = (kT - 2 + 1) / (2.0 * kRho);
  EXPECT_NEAR(acc.mean(), 0.0, 5.0 * std::sqrt(sigma2 / kTrials));
}

TEST(StatisticalTest, CategoricalBinsStayCenteredOnTruth) {
  // The categorical stage 2 hands each overlap's remainder to uniformly
  // chosen children and assigns records by keyed partial shuffles. Neither
  // may drift: after a long run every one of the A^k synthetic bins stays
  // centered on truth + npad.
  const int64_t kN = 600, kT = 12;
  const int kK = 2, kA = 3;
  const int kTrials = 500;
  util::SubstreamRng data_rng(19, util::substream::kGeneric);
  std::vector<std::vector<uint8_t>> rounds(static_cast<size_t>(kT));
  for (auto& round : rounds) {
    round.resize(static_cast<size_t>(kN));
    for (auto& s : round) s = static_cast<uint8_t>(data_rng.UniformInt(kA));
  }
  std::vector<int64_t> truth(kA * kA, 0);
  for (int64_t i = 0; i < kN; ++i) {
    ++truth[static_cast<size_t>(rounds[kT - 2][static_cast<size_t>(i)] * kA +
                                rounds[kT - 1][static_cast<size_t>(i)])];
  }
  std::vector<util::MomentAccumulator> error(truth.size());
  int64_t remainder_draws = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    CategoricalWindowSynthesizer::Options opt;
    opt.horizon = kT;
    opt.window_k = kK;
    opt.alphabet = kA;
    // Little noise, so a bias of a fraction of a record per bin shows.
    opt.rho = 10.0;
    opt.seed = 70000 + static_cast<uint64_t>(trial);
    auto synth = CategoricalWindowSynthesizer::Create(opt).value();
    for (const auto& round : rounds) {
      ASSERT_TRUE(synth->ObserveRound(round).ok());
    }
    remainder_draws += synth->stats().remainder_draws;
    for (size_t s = 0; s < truth.size(); ++s) {
      error[s].Add(static_cast<double>(synth->SyntheticHistogram()[s] -
                                       (truth[s] + synth->npad())));
    }
  }
  ASSERT_GT(remainder_draws, 0);
  for (size_t s = 0; s < error.size(); ++s) {
    const double se = error[s].stddev() / std::sqrt(double{kTrials});
    EXPECT_NEAR(error[s].mean(), 0.0, 5.0 * se) << "bin " << s;
  }
}

}  // namespace
}  // namespace core
}  // namespace longdp
