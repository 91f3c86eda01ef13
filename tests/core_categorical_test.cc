#include "core/categorical_synthesizer.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/limits.h"
#include "util/substream.h"

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
