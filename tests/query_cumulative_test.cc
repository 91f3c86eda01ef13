#include "query/cumulative_query.h"

#include <gtest/gtest.h>

#include "data/generators.h"
#include "data/longitudinal_dataset.h"
#include "util/substream.h"

namespace longdp {
namespace query {
namespace {

data::LongitudinalDataset MakeStairs() {
  // 4 users; user i reports 1 in rounds 1..i+1 (weights 1..4 by t=4).
  auto ds = data::LongitudinalDataset::Create(4, 4).value();
  EXPECT_TRUE(ds.AppendRound({1, 1, 1, 1}).ok());
  EXPECT_TRUE(ds.AppendRound({0, 1, 1, 1}).ok());
  EXPECT_TRUE(ds.AppendRound({0, 0, 1, 1}).ok());
  EXPECT_TRUE(ds.AppendRound({0, 0, 0, 1}).ok());
  return ds;
}

TEST(CumulativeQueryTest, ThresholdZeroIsOne) {
  auto ds = MakeStairs();
  EXPECT_EQ(EvaluateCumulativeOnDataset(ds, 1, 0).value(), 1.0);
  EXPECT_EQ(EvaluateCumulativeOnDataset(ds, 4, 0).value(), 1.0);
}

TEST(CumulativeQueryTest, StairValues) {
  auto ds = MakeStairs();
  // Weights at t=4: (1, 2, 3, 4).
  EXPECT_DOUBLE_EQ(EvaluateCumulativeOnDataset(ds, 4, 1).value(), 1.0);
  EXPECT_DOUBLE_EQ(EvaluateCumulativeOnDataset(ds, 4, 2).value(), 0.75);
  EXPECT_DOUBLE_EQ(EvaluateCumulativeOnDataset(ds, 4, 3).value(), 0.5);
  EXPECT_DOUBLE_EQ(EvaluateCumulativeOnDataset(ds, 4, 4).value(), 0.25);
}

TEST(CumulativeQueryTest, MonotoneInTAntitoneInB) {
  util::SubstreamRng rng(1, util::substream::kGeneric);
  auto ds = data::BernoulliIid(400, 8, 0.3, &rng).value();
  for (int64_t b = 1; b <= 4; ++b) {
    double prev = 0.0;
    for (int64_t t = 1; t <= 8; ++t) {
      double v = EvaluateCumulativeOnDataset(ds, t, b).value();
      EXPECT_GE(v, prev) << "b=" << b << " t=" << t;
      prev = v;
    }
  }
  for (int64_t t = 1; t <= 8; ++t) {
    double prev = 1.0;
    for (int64_t b = 1; b <= 8; ++b) {
      double v = EvaluateCumulativeOnDataset(ds, t, b).value();
      EXPECT_LE(v, prev) << "b=" << b << " t=" << t;
      prev = v;
    }
  }
}

TEST(CumulativeQueryTest, RangeChecks) {
  auto ds = MakeStairs();
  EXPECT_FALSE(EvaluateCumulativeOnDataset(ds, 0, 1).ok());
  EXPECT_FALSE(EvaluateCumulativeOnDataset(ds, 5, 1).ok());
  EXPECT_FALSE(EvaluateCumulativeOnDataset(ds, 2, -1).ok());
  EXPECT_FALSE(EvaluateCumulativeOnDataset(ds, 2, 5).ok());
}

TEST(CumulativeQueryTest, MatchesPerUserSums) {
  // Every (t, b) against a brute-force count of per-user prefix weights,
  // across populations at and around word boundaries.
  for (int64_t n : {0, 1, 63, 64, 65, 1000}) {
    for (int64_t horizon : {1, 12, 100}) {
      auto ds = data::BernoulliIid(n, horizon, 0.4,
                                   static_cast<uint64_t>(n + horizon))
                    .value();
      std::vector<int64_t> weight(static_cast<size_t>(n), 0);
      for (int64_t t = 1; t <= horizon; ++t) {
        for (int64_t i = 0; i < n; ++i) {
          weight[static_cast<size_t>(i)] += ds.Bit(i, t);
        }
        for (int64_t b = 0; b <= horizon; ++b) {
          int64_t count = 0;
          for (int64_t w : weight) count += w >= b ? 1 : 0;
          const double want =
              n == 0 ? 0.0
                     : static_cast<double>(count) / static_cast<double>(n);
          ASSERT_EQ(EvaluateCumulativeOnDataset(ds, t, b).value(), want)
              << "n=" << n << " T=" << horizon << " t=" << t << " b=" << b;
        }
      }
    }
  }
}

TEST(CumulativeQueryTest, AgreesWithCumulativeCounts) {
  util::SubstreamRng rng(2, util::substream::kGeneric);
  auto ds = data::BernoulliIid(300, 6, 0.5, &rng).value();
  for (int64_t t = 1; t <= 6; ++t) {
    auto counts = ds.CumulativeCounts(t).value();
    for (int64_t b = 0; b <= 6; ++b) {
      double expected = static_cast<double>(counts[static_cast<size_t>(b)]) /
                        300.0;
      EXPECT_DOUBLE_EQ(EvaluateCumulativeOnDataset(ds, t, b).value(),
                       expected);
    }
  }
}

TEST(CountOccExactTest, PaperReduction) {
  std::vector<int64_t> t2 = {100, 70, 40, 10};
  std::vector<int64_t> t1 = {100, 60, 20, 5};
  // CountOcc_=2 = thresholds_t2[2] - thresholds_t1[1] = 40 - 60 = -20
  // (formula as stated in the paper's Section 1.1).
  EXPECT_EQ(CountOccExactFromThresholds(t2, t1, 2).value(), -20);
  EXPECT_EQ(CountOccExactFromThresholds(t2, t2, 1).value(),
            70 - 100);
}

TEST(CountOccExactTest, Validation) {
  std::vector<int64_t> a = {10, 5};
  std::vector<int64_t> b = {10, 5, 2};
  EXPECT_FALSE(CountOccExactFromThresholds(a, b, 1).ok());
  EXPECT_FALSE(CountOccExactFromThresholds(a, a, 0).ok());
  EXPECT_FALSE(CountOccExactFromThresholds(a, a, 2).ok());
}

}  // namespace
}  // namespace query
}  // namespace longdp
