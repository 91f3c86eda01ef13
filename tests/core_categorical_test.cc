#include "core/categorical_synthesizer.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/fixed_window_synthesizer.h"
#include "core/limits.h"
#include "util/substream.h"
#include "util/thread_pool.h"

namespace longdp {
namespace core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

CategoricalWindowSynthesizer::Options Opt(int64_t horizon, int k, int alphabet,
                                          double rho, int64_t npad = -1,
                                          uint64_t seed = 0) {
  CategoricalWindowSynthesizer::Options options;
  options.horizon = horizon;
  options.window_k = k;
  options.alphabet = alphabet;
  options.rho = rho;
  options.npad = npad;
  options.seed = seed;
  return options;
}

// Random categorical rounds over alphabet A.
std::vector<std::vector<uint8_t>> RandomRounds(int64_t n, int64_t horizon,
                                               int alphabet,
                                               util::Rng* rng) {
  std::vector<std::vector<uint8_t>> rounds;
  for (int64_t t = 0; t < horizon; ++t) {
    std::vector<uint8_t> round(static_cast<size_t>(n));
    for (auto& s : round) {
      s = static_cast<uint8_t>(
          rng->UniformInt(static_cast<uint64_t>(alphabet)));
    }
    rounds.push_back(std::move(round));
  }
  return rounds;
}

// True window histogram over base-A codes at round index t (0-based,
// t >= k-1).
std::vector<int64_t> TrueHistogram(
    const std::vector<std::vector<uint8_t>>& rounds, int64_t n, int k,
    int alphabet, int64_t t) {
  uint64_t bins = 1;
  for (int j = 0; j < k; ++j) bins *= static_cast<uint64_t>(alphabet);
  std::vector<int64_t> hist(bins, 0);
  for (int64_t i = 0; i < n; ++i) {
    uint64_t code = 0;
    for (int64_t tt = t - k + 1; tt <= t; ++tt) {
      code = code * static_cast<uint64_t>(alphabet) +
             rounds[static_cast<size_t>(tt)][static_cast<size_t>(i)];
    }
    ++hist[code];
  }
  return hist;
}

TEST(CategoricalTest, NumBinsValidation) {
  EXPECT_EQ(CategoricalWindowSynthesizer::NumBins(3, 3).value(), 27u);
  EXPECT_EQ(CategoricalWindowSynthesizer::NumBins(2, 5).value(), 25u);
  EXPECT_FALSE(CategoricalWindowSynthesizer::NumBins(0, 3).ok());
  EXPECT_FALSE(CategoricalWindowSynthesizer::NumBins(3, 1).ok());
  EXPECT_FALSE(CategoricalWindowSynthesizer::NumBins(30, 10).ok());
  // The window's k * bit_width(A - 1) bit planes must fit kMaxPlanes = 16.
  EXPECT_EQ(CategoricalWindowSynthesizer::NumBins(16, 2).value(), 65536u);
  EXPECT_EQ(CategoricalWindowSynthesizer::NumBins(2, 256).value(), 65536u);
  EXPECT_EQ(CategoricalWindowSynthesizer::NumBins(4, 9).value(), 6561u);
  EXPECT_FALSE(CategoricalWindowSynthesizer::NumBins(17, 2).ok());
  EXPECT_FALSE(CategoricalWindowSynthesizer::NumBins(3, 64).ok());
  EXPECT_FALSE(CategoricalWindowSynthesizer::NumBins(1, 257).ok());
}

TEST(CategoricalTest, CreateValidates) {
  EXPECT_FALSE(CategoricalWindowSynthesizer::Create(Opt(2, 3, 3, 0.5)).ok());
  EXPECT_FALSE(
      CategoricalWindowSynthesizer::Create(Opt(12, 3, 3, 0.0)).ok());
  EXPECT_TRUE(
      CategoricalWindowSynthesizer::Create(Opt(12, 3, 3, kMinRho / 2))
          .status()
          .IsInvalidArgument());
  EXPECT_TRUE(
      CategoricalWindowSynthesizer::Create(Opt(12, 3, 3, kMinRho)).ok());
  EXPECT_TRUE(CategoricalWindowSynthesizer::Create(Opt(12, 3, 3, 0.5)).ok());
  EXPECT_TRUE(
      CategoricalWindowSynthesizer::Create(Opt(int64_t{1} << 16, 3, 3, 0.5))
          .status()
          .IsInvalidArgument());
}

TEST(CategoricalTest, BinaryCaseZeroNoiseMatchesTruth) {
  // A = 2 must reduce to Algorithm 1's behaviour.
  util::SubstreamRng rng(1, util::substream::kGeneric);
  const int64_t kN = 300, kT = 8;
  const int kK = 3, kA = 2;
  auto rounds = RandomRounds(kN, kT, kA, &rng);
  auto synth =
      CategoricalWindowSynthesizer::Create(Opt(kT, kK, kA, kInf, 0)).value();
  for (int64_t t = 0; t < kT; ++t) {
    ASSERT_TRUE(synth->ObserveRound(rounds[static_cast<size_t>(t)])
                    .ok());
    if (t + 1 >= kK) {
      EXPECT_EQ(synth->SyntheticHistogram(),
                TrueHistogram(rounds, kN, kK, kA, t))
          << "t=" << t;
    }
  }
}

TEST(CategoricalTest, TernaryZeroNoiseMatchesTruth) {
  util::SubstreamRng rng(2, util::substream::kGeneric);
  const int64_t kN = 400, kT = 7;
  const int kK = 2, kA = 3;
  auto rounds = RandomRounds(kN, kT, kA, &rng);
  auto synth =
      CategoricalWindowSynthesizer::Create(Opt(kT, kK, kA, kInf, 0)).value();
  for (int64_t t = 0; t < kT; ++t) {
    ASSERT_TRUE(synth->ObserveRound(rounds[static_cast<size_t>(t)])
                    .ok());
    if (t + 1 >= kK) {
      EXPECT_EQ(synth->SyntheticHistogram(),
                TrueHistogram(rounds, kN, kK, kA, t))
          << "t=" << t;
    }
  }
}

TEST(CategoricalTest, ConsistencyConstraintAcrossRounds) {
  // sum_a p^t_{z a} == sum_a p^{t-1}_{a z} for every overlap z, under noise.
  util::SubstreamRng rng(3, util::substream::kGeneric);
  const int64_t kN = 2000, kT = 10;
  const int kK = 2, kA = 4;
  auto rounds = RandomRounds(kN, kT, kA, &rng);
  auto synth =
      CategoricalWindowSynthesizer::Create(Opt(kT, kK, kA, 0.02, -1, 3)).value();
  std::vector<int64_t> prev;
  for (int64_t t = 0; t < kT; ++t) {
    ASSERT_TRUE(
        synth->ObserveRound(rounds[static_cast<size_t>(t)]).ok());
    if (!synth->has_release()) continue;
    auto cur = synth->SyntheticHistogram();
    if (!prev.empty()) {
      const uint64_t overlaps = 4;  // A^(k-1) = 4
      for (uint64_t z = 0; z < overlaps; ++z) {
        int64_t lhs = 0, rhs = 0;
        for (uint64_t a = 0; a < 4; ++a) {
          lhs += cur[z * 4 + a];      // patterns z then a
          rhs += prev[a * 4 + z];     // patterns a then z
        }
        EXPECT_EQ(lhs, rhs) << "t=" << t << " z=" << z;
      }
    }
    prev = cur;
  }
}

TEST(CategoricalTest, PopulationConstantUnderNoise) {
  util::SubstreamRng rng(5, util::substream::kGeneric);
  const int64_t kN = 1500, kT = 9;
  auto rounds = RandomRounds(kN, kT, 3, &rng);
  auto synth =
      CategoricalWindowSynthesizer::Create(Opt(kT, 2, 3, 0.05, -1, 5)).value();
  int64_t population = -1;
  for (int64_t t = 0; t < kT; ++t) {
    ASSERT_TRUE(
        synth->ObserveRound(rounds[static_cast<size_t>(t)]).ok());
    if (!synth->has_release()) continue;
    int64_t total = 0;
    for (int64_t c : synth->SyntheticHistogram()) total += c;
    if (population < 0) {
      population = total;
      EXPECT_EQ(population, synth->synthetic_population());
    } else {
      EXPECT_EQ(total, population) << "t=" << t;
    }
  }
}

TEST(CategoricalTest, DebiasedBinFractionsExactWithZeroNoise) {
  util::SubstreamRng rng(7, util::substream::kGeneric);
  const int64_t kN = 600, kT = 6;
  const int kK = 2, kA = 3;
  auto rounds = RandomRounds(kN, kT, kA, &rng);
  auto synth =
      CategoricalWindowSynthesizer::Create(Opt(kT, kK, kA, kInf, 25)).value();
  for (int64_t t = 0; t < kT; ++t) {
    ASSERT_TRUE(
        synth->ObserveRound(rounds[static_cast<size_t>(t)]).ok());
    if (!synth->has_release()) continue;
    auto truth = TrueHistogram(rounds, kN, kK, kA, t);
    for (uint64_t s = 0; s < truth.size(); ++s) {
      double expected =
          static_cast<double>(truth[s]) / static_cast<double>(kN);
      EXPECT_NEAR(synth->DebiasedBinFraction(s).value(), expected, 1e-12)
          << "t=" << t << " s=" << s;
    }
  }
}

TEST(CategoricalTest, RejectsOutOfAlphabetSymbol) {
  auto synth =
      CategoricalWindowSynthesizer::Create(Opt(5, 2, 3, kInf, 0)).value();
  std::vector<uint8_t> bad = {0, 3, 1};
  EXPECT_TRUE(synth->ObserveRound(bad).IsInvalidArgument());
}

TEST(CategoricalTest, RejectedFirstRoundDoesNotFixThePopulation) {
  // The rejected round is refused before any state changes, so the first
  // accepted round, of any size, fixes n, as in FixedWindowSynthesizer.
  auto synth =
      CategoricalWindowSynthesizer::Create(Opt(5, 2, 3, kInf, 0)).value();
  ASSERT_TRUE(synth->ObserveRound({0, 3, 1}).IsInvalidArgument());
  EXPECT_EQ(synth->t(), 0);
  EXPECT_EQ(synth->population(), -1);
  ASSERT_TRUE(synth->ObserveRound({2, 1}).ok());
  ASSERT_TRUE(synth->ObserveRound({0, 2}).ok());
  EXPECT_EQ(synth->population(), 2);
  EXPECT_TRUE(synth->has_release());
  EXPECT_TRUE(synth->ObserveRound({0, 1, 2}).IsInvalidArgument());

  FixedWindowSynthesizer::Options fixed;
  fixed.horizon = 5;
  fixed.window_k = 2;
  fixed.rho = kInf;
  fixed.npad = 0;
  auto binary = FixedWindowSynthesizer::Create(fixed).value();
  ASSERT_TRUE(binary->ObserveRound(std::vector<uint8_t>{0, 2, 1})
                  .IsInvalidArgument());
  EXPECT_TRUE(binary->ObserveRound(std::vector<uint8_t>{1, 1}).ok());
}

TEST(CategoricalTest, DebiasedBinFractionIsFiniteForAnEmptyPopulation) {
  auto synth =
      CategoricalWindowSynthesizer::Create(Opt(4, 2, 3, kInf, 5)).value();
  for (int t = 0; t < 2; ++t) {
    ASSERT_TRUE(synth->ObserveRound(std::vector<uint8_t>{}).ok());
  }
  ASSERT_TRUE(synth->has_release());
  // Each bin holds only its padding, normalized by 1 as the fixed-window
  // padding spec does.
  for (uint64_t s = 0; s < 9; ++s) {
    const Result<double> fraction = synth->DebiasedBinFraction(s);
    ASSERT_TRUE(fraction.ok()) << fraction.status().ToString();
    EXPECT_EQ(fraction.value(), 0.0) << "s=" << s;
  }
}

// At A = 2 the categorical synthesizer consumes FixedWindowSynthesizer's
// words: same noise, same roundings, same assignment shuffles. Under real
// noise it must release the same histogram every round and build the same
// cohort record for record. Adds the run's clamps and rounding draws to
// *clamps and *draws.
void ExpectBinaryRunMatchesFixedWindow(int k, int64_t n, int64_t npad,
                                       int threads, int64_t* clamps,
                                       int64_t* draws) {
  const int64_t T = 9;
  const double rho = 0.02;
  const uint64_t seed = 0xB1A + static_cast<uint64_t>(k);
  const std::string where = "k=" + std::to_string(k) +
                            " n=" + std::to_string(n) +
                            " npad=" + std::to_string(npad) +
                            " threads=" + std::to_string(threads);
  util::SubstreamRng rng(seed, util::substream::kGeneric);
  const auto rounds = RandomRounds(n, T, 2, &rng);
  auto pool =
      threads > 1 ? std::make_unique<util::ThreadPool>(threads) : nullptr;
  auto cat_opt = Opt(T, k, 2, rho, npad, seed);
  cat_opt.pool = pool.get();
  auto cat = CategoricalWindowSynthesizer::Create(cat_opt).value();
  FixedWindowSynthesizer::Options fw_opt;
  fw_opt.horizon = T;
  fw_opt.window_k = k;
  fw_opt.rho = rho;
  fw_opt.npad = npad;
  fw_opt.seed = seed;
  fw_opt.pool = pool.get();
  auto fw = FixedWindowSynthesizer::Create(fw_opt).value();
  ASSERT_EQ(cat->npad(), fw->npad()) << where;
  ASSERT_EQ(cat->sigma2(), fw->sigma2()) << where;
  for (int64_t t = 1; t <= T; ++t) {
    const auto& round = rounds[static_cast<size_t>(t - 1)];
    ASSERT_TRUE(cat->ObserveRound(round).ok()) << where;
    ASSERT_TRUE(fw->ObserveRound(round).ok()) << where;
    ASSERT_EQ(cat->has_release(), fw->has_release()) << where;
    if (!fw->has_release()) continue;
    ASSERT_EQ(cat->SyntheticHistogram(), fw->SyntheticHistogram())
        << where << " t=" << t;
  }
  const SyntheticCohort& cohort = fw->cohort();
  ASSERT_EQ(cat->synthetic_population(), cohort.num_records()) << where;
  for (int64_t r = 0; r < cohort.num_records(); ++r) {
    for (int64_t t = 1; t <= T; ++t) {
      ASSERT_EQ(cat->Symbol(r, t), cohort.Bit(r, t))
          << where << " record " << r << " t=" << t;
    }
  }
  EXPECT_EQ(cat->stats().negative_clamps, fw->stats().negative_clamps)
      << where;
  EXPECT_EQ(cat->stats().remainder_draws, fw->stats().rounding_draws)
      << where;
  EXPECT_EQ(cat->stats().releases, fw->stats().releases) << where;
  *clamps += fw->stats().negative_clamps;
  *draws += fw->stats().rounding_draws;
}

TEST(CategoricalTest, BinaryAlphabetReproducesFixedWindow) {
  // n = 640 fills whole words, n = 333 ends in a partial one; npad = 0
  // lets this budget clamp.
  int64_t clamps = 0;
  int64_t draws = 0;
  for (int k = 1; k <= 4; ++k) {
    for (int64_t n : {int64_t{640}, int64_t{333}}) {
      for (int64_t npad : {int64_t{-1}, int64_t{0}}) {
        for (int threads : {1, 2, 8}) {
          ExpectBinaryRunMatchesFixedWindow(k, n, npad, threads, &clamps,
                                            &draws);
        }
      }
    }
  }
  // The sweep exercised both stage-2 branches it compares.
  EXPECT_GT(clamps, 0);
  EXPECT_GT(draws, 0);
}

TEST(CategoricalTest, HistoriesAppendOnly) {
  util::SubstreamRng rng(13, util::substream::kGeneric);
  const int64_t kN = 200, kT = 7;
  auto rounds = RandomRounds(kN, kT, 3, &rng);
  auto synth =
      CategoricalWindowSynthesizer::Create(Opt(kT, 2, 3, 0.1, -1, 13)).value();
  std::vector<std::vector<int>> prefixes;
  for (int64_t t = 0; t < kT; ++t) {
    ASSERT_TRUE(
        synth->ObserveRound(rounds[static_cast<size_t>(t)]).ok());
    if (!synth->has_release()) continue;
    if (prefixes.empty()) {
      prefixes.resize(static_cast<size_t>(synth->synthetic_population()));
    }
    for (int64_t r = 0; r < synth->synthetic_population(); ++r) {
      auto& p = prefixes[static_cast<size_t>(r)];
      for (size_t j = 0; j < p.size(); ++j) {
        ASSERT_EQ(synth->Symbol(r, static_cast<int64_t>(j + 1)), p[j]);
      }
      while (p.size() < static_cast<size_t>(t + 1)) {
        p.push_back(synth->Symbol(r, static_cast<int64_t>(p.size() + 1)));
      }
    }
  }
}

// Parameterized alphabet sweep.
class CategoricalAlphabetTest : public ::testing::TestWithParam<int> {};

TEST_P(CategoricalAlphabetTest, ZeroNoiseExactForAlphabet) {
  const int kA = GetParam();
  util::SubstreamRng rng(17 + static_cast<uint64_t>(kA), util::substream::kGeneric);
  const int64_t kN = 300, kT = 6;
  const int kK = 2;
  auto rounds = RandomRounds(kN, kT, kA, &rng);
  auto synth =
      CategoricalWindowSynthesizer::Create(Opt(kT, kK, kA, kInf, 0)).value();
  for (int64_t t = 0; t < kT; ++t) {
    ASSERT_TRUE(
        synth->ObserveRound(rounds[static_cast<size_t>(t)]).ok());
    if (t + 1 >= kK) {
      EXPECT_EQ(synth->SyntheticHistogram(),
                TrueHistogram(rounds, kN, kK, kA, t))
          << "A=" << kA << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Alphabets, CategoricalAlphabetTest,
                         ::testing::Values(2, 3, 4, 5, 8));

}  // namespace
}  // namespace core
}  // namespace longdp
