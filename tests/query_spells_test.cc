#include "query/spells.h"

#include <gtest/gtest.h>

#include "data/generators.h"
#include "util/substream.h"

namespace longdp {
namespace query {
namespace {

data::LongitudinalDataset MakePanel() {
  // u0: 1 1 0 1 1 1   spells {2, 3}
  // u1: 0 0 0 0 0 0   no spells
  // u2: 1 0 1 0 1 0   spells {1, 1, 1}
  // u3: 1 1 1 1 1 1   spell {6} (ongoing)
  auto ds = data::LongitudinalDataset::Create(4, 6).value();
  EXPECT_TRUE(ds.AppendRound({1, 0, 1, 1}).ok());
  EXPECT_TRUE(ds.AppendRound({1, 0, 0, 1}).ok());
  EXPECT_TRUE(ds.AppendRound({0, 0, 1, 1}).ok());
  EXPECT_TRUE(ds.AppendRound({1, 0, 0, 1}).ok());
  EXPECT_TRUE(ds.AppendRound({1, 0, 1, 1}).ok());
  EXPECT_TRUE(ds.AppendRound({1, 0, 0, 1}).ok());
  return ds;
}

TEST(SpellsTest, HistogramCountsMaximalRuns) {
  auto ds = MakePanel();
  auto hist = SpellLengthHistogram(ds, 6).value();
  // Lengths: u0 {2,3}, u2 {1,1,1}, u3 {6}.
  EXPECT_EQ(hist[1], 3);
  EXPECT_EQ(hist[2], 1);
  EXPECT_EQ(hist[3], 1);
  EXPECT_EQ(hist[4], 0);
  EXPECT_EQ(hist[6], 1);
}

TEST(SpellsTest, HistogramAtEarlierTime) {
  auto ds = MakePanel();
  auto hist = SpellLengthHistogram(ds, 3).value();
  // Through t=3: u0 has spell {2} (ended) only — bits 1,1,0.
  // u2: bits 1,0,1 -> spells {1, 1}. u3: bits 1,1,1 -> ongoing {3}.
  EXPECT_EQ(hist[1], 2);
  EXPECT_EQ(hist[2], 1);
  EXPECT_EQ(hist[3], 1);
}

TEST(SpellsTest, EverHadSpell) {
  auto ds = MakePanel();
  // min_len=2: u0 (spell 2), u3 -> 2/4.
  EXPECT_DOUBLE_EQ(EverHadSpell(ds, 6, 2).value(), 0.5);
  // min_len=1: u0, u2, u3 -> 3/4.
  EXPECT_DOUBLE_EQ(EverHadSpell(ds, 6, 1).value(), 0.75);
  // min_len=6: only u3.
  EXPECT_DOUBLE_EQ(EverHadSpell(ds, 6, 6).value(), 0.25);
  EXPECT_DOUBLE_EQ(EverHadSpell(ds, 6, 7).value(), 0.0);
}

TEST(SpellsTest, EverHadSpellMonotoneInT) {
  util::SubstreamRng rng(1, util::substream::kGeneric);
  auto ds = data::BernoulliIid(300, 10, 0.3, &rng).value();
  for (int64_t len = 1; len <= 4; ++len) {
    double prev = 0.0;
    for (int64_t t = 1; t <= 10; ++t) {
      double v = EverHadSpell(ds, t, len).value();
      EXPECT_GE(v, prev) << "t=" << t << " len=" << len;
      prev = v;
    }
  }
}

TEST(SpellsTest, OngoingSpellAtLeast) {
  auto ds = MakePanel();
  // At t=6: current runs are u0: 3, u1: 0, u2: 0 (bit 6 = 0), u3: 6.
  EXPECT_DOUBLE_EQ(OngoingSpellAtLeast(ds, 6, 3).value(), 0.5);
  EXPECT_DOUBLE_EQ(OngoingSpellAtLeast(ds, 6, 4).value(), 0.25);
  // At t=5: runs u0: 2, u2: 1, u3: 5.
  EXPECT_DOUBLE_EQ(OngoingSpellAtLeast(ds, 5, 1).value(), 0.75);
}

TEST(SpellsTest, MeanSpellLength) {
  auto ds = MakePanel();
  // Spells: 2,3,1,1,1,6 -> mean 14/6.
  EXPECT_NEAR(MeanSpellLength(ds, 6).value(), 14.0 / 6.0, 1e-12);
}

TEST(SpellsTest, NoSpellsMeansZero) {
  auto ds = data::ExtremeAllZeros(10, 4).value();
  EXPECT_EQ(MeanSpellLength(ds, 4).value(), 0.0);
  EXPECT_EQ(EverHadSpell(ds, 4, 1).value(), 0.0);
  auto hist = SpellLengthHistogram(ds, 4).value();
  for (int64_t c : hist) EXPECT_EQ(c, 0);
}

TEST(SpellsTest, Validation) {
  auto ds = MakePanel();
  EXPECT_FALSE(SpellLengthHistogram(ds, 0).ok());
  EXPECT_FALSE(SpellLengthHistogram(ds, 7).ok());
  EXPECT_FALSE(EverHadSpell(ds, 3, 0).ok());
  EXPECT_FALSE(OngoingSpellAtLeast(ds, 3, -1).ok());
}

TEST(SpellsTest, SpanFormMatchesDatasetForm) {
  // The span-of-RoundView primitives are the same word loops the dataset
  // wrappers forward to; answers must be identical on shared storage.
  util::SubstreamRng rng(3, util::substream::kGeneric);
  auto ds = data::BernoulliIid(150, 10, 0.5, &rng).value();
  std::vector<data::RoundView> rounds;
  for (int64_t t = 1; t <= ds.rounds(); ++t) rounds.push_back(ds.Round(t));
  const std::span<const data::RoundView> span(rounds);
  for (int64_t t : {1, 4, 10}) {
    EXPECT_EQ(SpellLengthHistogram(span, t).value(),
              SpellLengthHistogram(ds, t).value());
    EXPECT_EQ(MeanSpellLength(span, t).value(),
              MeanSpellLength(ds, t).value());
    for (int64_t len : {1, 2, 5}) {
      EXPECT_EQ(EverHadSpell(span, t, len).value(),
                EverHadSpell(ds, t, len).value());
      EXPECT_EQ(OngoingSpellAtLeast(span, t, len).value(),
                OngoingSpellAtLeast(ds, t, len).value());
    }
  }
}

TEST(SpellsTest, SpanFormRejectsMismatchedViewSizes) {
  auto a = data::ExtremeAllZeros(10, 2).value();
  auto b = data::ExtremeAllZeros(11, 2).value();
  std::vector<data::RoundView> rounds = {a.Round(1), b.Round(1)};
  const std::span<const data::RoundView> span(rounds);
  EXPECT_TRUE(SpellLengthHistogram(span, 2).status().IsInvalidArgument());
  EXPECT_TRUE(EverHadSpell(span, 2, 1).status().IsInvalidArgument());
}

TEST(SpellsTest, HistogramTotalsMatchPopulationWeight) {
  // Property: sum over lengths of (length * count) == total 1-bits.
  util::SubstreamRng rng(2, util::substream::kGeneric);
  auto ds = data::BernoulliIid(200, 12, 0.4, &rng).value();
  for (int64_t t : {1, 5, 12}) {
    auto hist = SpellLengthHistogram(ds, t).value();
    int64_t weighted = 0;
    for (size_t l = 0; l < hist.size(); ++l) {
      weighted += static_cast<int64_t>(l) * hist[l];
    }
    int64_t ones = 0;
    for (int64_t tt = 1; tt <= t; ++tt) ones += ds.Round(tt).CountOnes();
    EXPECT_EQ(weighted, ones) << "t=" << t;
  }
}

}  // namespace
}  // namespace query
}  // namespace longdp
