#include "data/longitudinal_dataset.h"

#include <gtest/gtest.h>

#include "util/simd/simd.h"
#include "util/substream.h"

namespace longdp {
namespace data {
namespace {

LongitudinalDataset MakeSmall() {
  // 4 users x 5 rounds:
  //   u0: 1 1 1 1 1
  //   u1: 0 1 0 1 0
  //   u2: 0 0 0 0 0
  //   u3: 1 0 0 1 1
  auto ds = LongitudinalDataset::Create(4, 5).value();
  EXPECT_TRUE(ds.AppendRound({1, 0, 0, 1}).ok());
  EXPECT_TRUE(ds.AppendRound({1, 1, 0, 0}).ok());
  EXPECT_TRUE(ds.AppendRound({1, 0, 0, 0}).ok());
  EXPECT_TRUE(ds.AppendRound({1, 1, 0, 1}).ok());
  EXPECT_TRUE(ds.AppendRound({1, 0, 0, 1}).ok());
  return ds;
}

/// Prefix Hamming weight of `user` through round t, by brute force.
int64_t PrefixWeight(const LongitudinalDataset& ds, int64_t user, int64_t t) {
  int64_t w = 0;
  for (int64_t tt = 1; tt <= t; ++tt) w += ds.Bit(user, tt);
  return w;
}

TEST(DatasetTest, CreateValidates) {
  EXPECT_FALSE(LongitudinalDataset::Create(-1, 5).ok());
  EXPECT_FALSE(LongitudinalDataset::Create(5, 0).ok());
  EXPECT_TRUE(LongitudinalDataset::Create(0, 1).ok());
  // The horizon cap the plane kernels and the synthesizers share.
  EXPECT_TRUE(LongitudinalDataset::Create(3, util::simd::kMaxHorizon).ok());
  EXPECT_TRUE(LongitudinalDataset::Create(3, util::simd::kMaxHorizon + 1)
                  .status()
                  .IsInvalidArgument());
}

TEST(DatasetTest, AppendRoundValidates) {
  auto ds = LongitudinalDataset::Create(3, 2).value();
  EXPECT_TRUE(ds.AppendRound({0, 1, 0}).ok());
  EXPECT_TRUE(ds.AppendRound({2, 0, 0}).IsInvalidArgument());
  EXPECT_TRUE(ds.AppendRound({0, 1}).IsInvalidArgument());
  EXPECT_TRUE(ds.AppendRound({1, 1, 1}).ok());
  EXPECT_TRUE(ds.AppendRound({0, 0, 0}).IsOutOfRange());
}

TEST(DatasetTest, RejectedRoundLeavesTheDatasetUnchanged) {
  // A bad entry past the first word: nothing of the round is published,
  // and the next good round lands at t = 2 with clean words.
  auto ds = LongitudinalDataset::Create(70, 3).value();
  ASSERT_TRUE(ds.AppendRound(std::vector<uint8_t>(70, 1)).ok());
  std::vector<uint8_t> bad(70, 0);
  bad[66] = 3;
  EXPECT_TRUE(ds.AppendRound(bad).IsInvalidArgument());
  EXPECT_EQ(ds.rounds(), 1);
  std::vector<uint8_t> good(70, 0);
  good[66] = 1;
  ASSERT_TRUE(ds.AppendRound(good).ok());
  EXPECT_EQ(ds.rounds(), 2);
  EXPECT_EQ(ds.Round(2).words()[0], 0u);
  EXPECT_EQ(ds.Round(2).words()[1], uint64_t{1} << 2);
}

TEST(DatasetTest, AppendPackedRoundCopiesTheWords) {
  auto src = LongitudinalDataset::Create(70, 2).value();
  std::vector<uint8_t> bits(70, 0);
  for (size_t i = 0; i < bits.size(); i += 3) bits[i] = 1;
  ASSERT_TRUE(src.AppendRound(bits).ok());
  auto dst = LongitudinalDataset::Create(70, 1).value();
  ASSERT_TRUE(dst.AppendPackedRound(src.Round(1)).ok());
  EXPECT_EQ(dst.Round(1).words()[0], src.Round(1).words()[0]);
  EXPECT_EQ(dst.Round(1).words()[1], src.Round(1).words()[1]);
  EXPECT_TRUE(dst.AppendPackedRound(src.Round(1)).IsOutOfRange());
  auto other = LongitudinalDataset::Create(69, 1).value();
  EXPECT_TRUE(other.AppendPackedRound(src.Round(1)).IsInvalidArgument());
  EXPECT_EQ(other.rounds(), 0);
}

TEST(DatasetTest, BitAccess) {
  auto ds = MakeSmall();
  EXPECT_EQ(ds.Bit(0, 1), 1);
  EXPECT_EQ(ds.Bit(1, 1), 0);
  EXPECT_EQ(ds.Bit(1, 2), 1);
  EXPECT_EQ(ds.Bit(3, 5), 1);
  EXPECT_EQ(ds.rounds(), 5);
  EXPECT_EQ(ds.num_users(), 4);
}

TEST(DatasetTest, HammingWeights) {
  // Weights at t = 1 are (1, 0, 0, 1) and at t = 5 (5, 2, 0, 3); the
  // threshold counts carry them.
  auto ds = MakeSmall();
  EXPECT_EQ(PrefixWeight(ds, 0, 5), 5);
  EXPECT_EQ(PrefixWeight(ds, 3, 5), 3);
  EXPECT_EQ(ds.CumulativeCounts(1).value(),
            (std::vector<int64_t>{4, 2, 0, 0, 0, 0}));
  EXPECT_EQ(ds.CumulativeCounts(5).value(),
            (std::vector<int64_t>{4, 3, 3, 2, 1, 1}));
}

TEST(DatasetTest, SuffixPatternOldestFirst) {
  auto ds = MakeSmall();
  // u1 = 0 1 0 1 0; window of 3 ending at t=4 is (0,1,0)... rounds 2..4 =
  // (1,0,1) -> "101" = 0b101.
  EXPECT_EQ(ds.SuffixPattern(1, 4, 3), util::Pattern{0b101});
  // u3 rounds 3..5 = (0,1,1) -> 0b011.
  EXPECT_EQ(ds.SuffixPattern(3, 5, 3), util::Pattern{0b011});
}

TEST(DatasetTest, SuffixPatternPadsBeforeStart) {
  auto ds = MakeSmall();
  // Window of 3 ending at t=1: bits (x^{-1}, x^0, x^1) = (0, 0, x^1).
  EXPECT_EQ(ds.SuffixPattern(0, 1, 3), util::Pattern{0b001});
  EXPECT_EQ(ds.SuffixPattern(2, 1, 3), util::Pattern{0b000});
}

TEST(DatasetTest, WindowHistogramCountsAllUsers) {
  auto ds = MakeSmall();
  auto hist = ds.WindowHistogram(3, 3);
  ASSERT_TRUE(hist.ok());
  int64_t total = 0;
  for (int64_t c : hist.value()) total += c;
  EXPECT_EQ(total, 4);
  // u0 window rounds 1-3 = 111; u1 = 010; u2 = 000; u3 = 100.
  EXPECT_EQ(hist.value()[0b111], 1);
  EXPECT_EQ(hist.value()[0b010], 1);
  EXPECT_EQ(hist.value()[0b000], 1);
  EXPECT_EQ(hist.value()[0b100], 1);
}

TEST(DatasetTest, WindowHistogramValidatesRange) {
  auto ds = MakeSmall();
  EXPECT_FALSE(ds.WindowHistogram(2, 3).ok());  // t < k
  EXPECT_FALSE(ds.WindowHistogram(6, 3).ok());  // t > rounds
  EXPECT_FALSE(ds.WindowHistogram(3, 0).ok());
}

TEST(DatasetTest, CumulativeCounts) {
  auto ds = MakeSmall();
  auto counts = ds.CumulativeCounts(5);
  ASSERT_TRUE(counts.ok());
  // Weights at t=5: 5, 2, 0, 3.
  EXPECT_EQ(counts.value()[0], 4);
  EXPECT_EQ(counts.value()[1], 3);
  EXPECT_EQ(counts.value()[2], 3);
  EXPECT_EQ(counts.value()[3], 2);
  EXPECT_EQ(counts.value()[4], 1);
  EXPECT_EQ(counts.value()[5], 1);
}

TEST(DatasetTest, WeightIncrementsMatchDefinition) {
  auto ds = MakeSmall();
  // Round 4 bits: u0=1 (weight 3->4), u1=1 (1->2), u2=0, u3=1 (1->2).
  auto z = ds.WeightIncrements(4);
  ASSERT_TRUE(z.ok());
  EXPECT_EQ(z.value()[3], 1);  // z_4: one user reached weight 4 (index b-1=3)
  EXPECT_EQ(z.value()[1], 2);  // z_2: two users reached weight 2
  EXPECT_EQ(z.value()[0], 0);
}

TEST(DatasetTest, IncrementsSumToCumulativeProperty) {
  // Property: for every b, sum_{j<=t} z^j_b == S^t_b (the Algorithm 2
  // representation S^t_b = sum z^j_b), on random data.
  util::SubstreamRng rng(42, util::substream::kGeneric);
  const int64_t kN = 200, kT = 10;
  auto ds = LongitudinalDataset::Create(kN, kT).value();
  std::vector<uint8_t> round(kN);
  for (int64_t t = 1; t <= kT; ++t) {
    for (auto& b : round) b = rng.Bernoulli(0.3) ? 1 : 0;
    ASSERT_TRUE(ds.AppendRound(round).ok());
  }
  std::vector<int64_t> running(kT, 0);
  for (int64_t t = 1; t <= kT; ++t) {
    auto z = ds.WeightIncrements(t);
    ASSERT_TRUE(z.ok());
    for (int64_t b = 1; b <= kT; ++b) {
      running[static_cast<size_t>(b - 1)] +=
          z.value()[static_cast<size_t>(b - 1)];
    }
    auto counts = ds.CumulativeCounts(t);
    ASSERT_TRUE(counts.ok());
    for (int64_t b = 1; b <= kT; ++b) {
      EXPECT_EQ(running[static_cast<size_t>(b - 1)],
                counts.value()[static_cast<size_t>(b)])
          << "t=" << t << " b=" << b;
    }
  }
}

TEST(DatasetTest, OnDemandStatisticsMatchPerUserSums) {
  // CumulativeCounts and WeightIncrements against per-user prefix weights
  // at every t, across populations at and around word boundaries.
  for (int64_t n : {0, 1, 63, 64, 65, 1000}) {
    for (int64_t horizon : {1, 12, 100}) {
      util::SubstreamRng rng(static_cast<uint64_t>(n * 1000 + horizon),
                             util::substream::kGeneric);
      auto ds = LongitudinalDataset::Create(n, horizon).value();
      std::vector<uint8_t> round(static_cast<size_t>(n));
      for (int64_t t = 1; t <= horizon; ++t) {
        for (auto& b : round) b = rng.Bernoulli(0.6) ? 1 : 0;
        ASSERT_TRUE(ds.AppendRound(round).ok());
      }
      std::vector<int64_t> weight(static_cast<size_t>(n), 0);
      for (int64_t t = 1; t <= horizon; ++t) {
        std::vector<int64_t> z(static_cast<size_t>(horizon), 0);
        for (int64_t i = 0; i < n; ++i) {
          int64_t& w = weight[static_cast<size_t>(i)];
          if (ds.Bit(i, t) == 1) ++z[static_cast<size_t>(w++)];
        }
        std::vector<int64_t> counts(static_cast<size_t>(horizon) + 1, 0);
        for (int64_t w : weight) {
          for (int64_t b = 0; b <= w; ++b) ++counts[static_cast<size_t>(b)];
        }
        ASSERT_EQ(ds.CumulativeCounts(t).value(), counts)
            << "n=" << n << " T=" << horizon << " t=" << t;
        ASSERT_EQ(ds.WeightIncrements(t).value(), z)
            << "n=" << n << " T=" << horizon << " t=" << t;
      }
    }
  }
}

TEST(DatasetTest, WindowHistogramMatchesSuffixPatternsProperty) {
  // Property: the histogram at (t, k) recounts SuffixPattern exactly.
  util::SubstreamRng rng(7, util::substream::kGeneric);
  const int64_t kN = 150, kT = 8;
  const int kK = 3;
  auto ds = LongitudinalDataset::Create(kN, kT).value();
  std::vector<uint8_t> round(kN);
  for (int64_t t = 1; t <= kT; ++t) {
    for (auto& b : round) b = rng.Bernoulli(0.5) ? 1 : 0;
    ASSERT_TRUE(ds.AppendRound(round).ok());
  }
  for (int64_t t = kK; t <= kT; ++t) {
    auto hist = ds.WindowHistogram(t, kK).value();
    std::vector<int64_t> expected(util::NumPatterns(kK), 0);
    for (int64_t i = 0; i < kN; ++i) {
      ++expected[ds.SuffixPattern(i, t, kK)];
    }
    EXPECT_EQ(hist, expected) << "t=" << t;
  }
}

// ---------------------------------------------------------------------------
// Bit-packed round representation.

TEST(DatasetTest, RoundViewBitsMatchAppendedBytes) {
  // A population that is not a multiple of 64 exercises the partial last
  // word; random bits exercise every position.
  const int64_t kN = 150, kT = 4;
  util::SubstreamRng rng(0xBEEFu, util::substream::kGeneric);
  auto ds = LongitudinalDataset::Create(kN, kT).value();
  std::vector<std::vector<uint8_t>> rounds;
  std::vector<uint8_t> round(static_cast<size_t>(kN));
  for (int64_t t = 1; t <= kT; ++t) {
    for (auto& b : round) b = rng.Bernoulli(0.4) ? 1 : 0;
    rounds.push_back(round);
    ASSERT_TRUE(ds.AppendRound(round).ok());
  }
  for (int64_t t = 1; t <= kT; ++t) {
    RoundView view = ds.Round(t);
    ASSERT_EQ(view.size(), kN);
    ASSERT_EQ(view.num_words(), static_cast<size_t>((kN + 63) / 64));
    int64_t ones = 0;
    for (int64_t i = 0; i < kN; ++i) {
      EXPECT_EQ(view.bit(i),
                rounds[static_cast<size_t>(t - 1)][static_cast<size_t>(i)])
          << "t=" << t << " i=" << i;
      EXPECT_EQ(view.bit(i), ds.Bit(i, t));
      ones += view.bit(i);
    }
    EXPECT_EQ(view.CountOnes(), ones) << "t=" << t;
  }
}

TEST(DatasetTest, RoundViewForEachOneVisitsExactlyTheSetBits) {
  const int64_t kN = 200;
  util::SubstreamRng rng(0xFACEu, util::substream::kGeneric);
  auto ds = LongitudinalDataset::Create(kN, 1).value();
  std::vector<uint8_t> round(static_cast<size_t>(kN));
  for (auto& b : round) b = rng.Bernoulli(0.25) ? 1 : 0;
  ASSERT_TRUE(ds.AppendRound(round).ok());

  RoundView view = ds.Round(1);
  std::vector<int64_t> visited;
  view.ForEachOne([&](int64_t i) { visited.push_back(i); });
  std::vector<int64_t> expected;
  for (int64_t i = 0; i < kN; ++i) {
    if (round[static_cast<size_t>(i)]) expected.push_back(i);
  }
  EXPECT_EQ(visited, expected);  // increasing order, every set bit once

  // Range iteration with unaligned bounds (masks on both end words).
  for (auto [lo, hi] : {std::pair<int64_t, int64_t>{3, 197},
                        {63, 65},
                        {64, 128},
                        {100, 100},
                        {0, 200}}) {
    std::vector<int64_t> got;
    view.ForEachOneInRange(lo, hi, [&](int64_t i) { got.push_back(i); });
    std::vector<int64_t> want;
    for (int64_t i = lo; i < hi; ++i) {
      if (round[static_cast<size_t>(i)]) want.push_back(i);
    }
    EXPECT_EQ(got, want) << "range [" << lo << ", " << hi << ")";
  }
}

TEST(DatasetTest, PackedRoundValidatesAndRoundTrips) {
  auto packed = PackedRound::FromBytes({1, 0, 1, 1, 0});
  ASSERT_TRUE(packed.ok());
  RoundView view = packed.value().view();
  EXPECT_EQ(view.size(), 5);
  EXPECT_EQ(view.bit(0), 1);
  EXPECT_EQ(view.bit(1), 0);
  EXPECT_EQ(view.bit(4), 0);
  EXPECT_EQ(view.CountOnes(), 3);

  EXPECT_TRUE(PackedRound::FromBytes({0, 1, 2}).status().IsInvalidArgument());

  // Assign reuses the buffer and handles exact word multiples.
  PackedRound reuse;
  std::vector<uint8_t> full(128, 1);
  ASSERT_TRUE(reuse.Assign(full).ok());
  EXPECT_EQ(reuse.view().CountOnes(), 128);
  ASSERT_TRUE(reuse.Assign({0, 0, 1}).ok());
  EXPECT_EQ(reuse.view().size(), 3);
  EXPECT_EQ(reuse.view().CountOnes(), 1);
}

TEST(DatasetTest, RejectedAssignLeavesThePackedRoundUnchanged) {
  PackedRound round;
  ASSERT_TRUE(round.Assign({1, 0, 1}).ok());
  std::vector<uint8_t> bad(100, 1);
  bad[70] = 255;
  EXPECT_TRUE(round.Assign(bad).IsInvalidArgument());
  EXPECT_EQ(round.view().size(), 3);
  EXPECT_EQ(round.view().num_words(), 1u);
  EXPECT_EQ(round.view().words()[0], 0b101u);
}

TEST(DatasetTest, CheckSymbolsMatchesAByteCompareAtEveryLimit) {
  // Every byte value at every lane of a word, and in a partial tail.
  for (int limit : {1, 2, 3, 64, 127, 128, 129, 200, 255, 256}) {
    for (int64_t n : {int64_t{8}, int64_t{13}}) {
      for (int64_t at = 0; at < n; ++at) {
        for (int v = 0; v < 256; ++v) {
          std::vector<uint8_t> symbols(static_cast<size_t>(n), 0);
          symbols[static_cast<size_t>(at)] = static_cast<uint8_t>(v);
          EXPECT_EQ(CheckSymbols(symbols.data(), n, limit).ok(), v < limit)
              << "limit=" << limit << " n=" << n << " at=" << at
              << " v=" << v;
        }
      }
    }
  }
  EXPECT_TRUE(CheckSymbols(nullptr, 0, 2).ok());
}

TEST(DatasetTest, SliceSymbolsPutsBitPOfSymbolIInPlaneP) {
  util::SubstreamRng rng(0x511CEu, util::substream::kGeneric);
  for (int planes = 1; planes <= 8; ++planes) {
    for (int64_t n : {int64_t{0}, int64_t{1}, int64_t{7}, int64_t{64},
                      int64_t{65}, int64_t{200}}) {
      std::vector<uint8_t> symbols(static_cast<size_t>(n));
      for (auto& s : symbols) s = static_cast<uint8_t>(rng.UniformInt(256));
      const size_t words = static_cast<size_t>((n + 63) / 64);
      // Pre-filled with ones: every word, tail bits included, is written.
      std::vector<std::vector<uint64_t>> out(
          static_cast<size_t>(planes), std::vector<uint64_t>(words, ~0ull));
      std::vector<uint64_t*> ptrs;
      for (auto& plane : out) ptrs.push_back(plane.data());
      SliceSymbols(symbols.data(), n, planes, ptrs.data());
      for (int p = 0; p < planes; ++p) {
        for (int64_t i = 0; i < static_cast<int64_t>(words) * 64; ++i) {
          const uint64_t want =
              i < n ? (symbols[static_cast<size_t>(i)] >> p) & 1 : 0;
          ASSERT_EQ((out[static_cast<size_t>(p)][static_cast<size_t>(i / 64)] >>
                     (i % 64)) & 1,
                    want)
              << "planes=" << planes << " n=" << n << " p=" << p
              << " lane " << i;
        }
      }
    }
  }
}

TEST(DatasetTest, ForEachSuffixPatternMatchesSuffixPattern) {
  // Includes t < k (zero padding before the first round) and a population
  // spanning multiple words.
  const int64_t kN = 130, kT = 6;
  util::SubstreamRng rng(0xABCDu, util::substream::kGeneric);
  auto ds = LongitudinalDataset::Create(kN, kT).value();
  std::vector<uint8_t> round(static_cast<size_t>(kN));
  for (int64_t t = 1; t <= kT; ++t) {
    for (auto& b : round) b = rng.Bernoulli(0.5) ? 1 : 0;
    ASSERT_TRUE(ds.AppendRound(round).ok());
  }
  for (int k : {1, 3, 5}) {
    for (int64_t t = 1; t <= kT; ++t) {
      int64_t calls = 0;
      ds.ForEachSuffixPattern(t, k, [&](int64_t user, util::Pattern p) {
        EXPECT_EQ(p, ds.SuffixPattern(user, t, k))
            << "user=" << user << " t=" << t << " k=" << k;
        EXPECT_EQ(user, calls);  // increasing user order
        ++calls;
      });
      EXPECT_EQ(calls, kN);
    }
  }
}

}  // namespace
}  // namespace data
}  // namespace longdp
