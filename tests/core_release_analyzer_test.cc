#include "core/release_analyzer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>

#include "data/generators.h"
#include "query/cumulative_query.h"
#include "util/substream.h"

namespace longdp {
namespace core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class ReleaseAnalyzerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::SubstreamRng rng(1, util::substream::kGeneric);
    ds_ = std::make_unique<data::LongitudinalDataset>(
        data::BernoulliIid(400, 8, 0.3, &rng).value());

    FixedWindowSynthesizer::Options fopt;
    fopt.horizon = 8;
    fopt.window_k = 3;
    fopt.rho = kInf;
    fopt.npad = 30;
    auto window_synth = FixedWindowSynthesizer::Create(fopt).value();
    CumulativeSynthesizer::Options copt;
    copt.horizon = 8;
    copt.rho = kInf;
    auto cumulative_synth = CumulativeSynthesizer::Create(copt).value();
    for (int64_t t = 1; t <= 8; ++t) {
      ASSERT_TRUE(window_synth->ObserveRound(ds_->Round(t)).ok());
      ASSERT_TRUE(cumulative_synth->ObserveRound(ds_->Round(t)).ok());
      ASSERT_TRUE(log_.Capture(*window_synth).ok());
      ASSERT_TRUE(log_.Capture(*cumulative_synth).ok());
    }
  }

  std::unique_ptr<data::LongitudinalDataset> ds_;
  ReleaseLog log_;
};

TEST_F(ReleaseAnalyzerTest, ListsReleaseTimes) {
  ReleaseAnalyzer analyzer(log_);
  EXPECT_EQ(analyzer.WindowTimes(),
            (std::vector<int64_t>{3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(analyzer.CumulativeTimes(),
            (std::vector<int64_t>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST_F(ReleaseAnalyzerTest, WindowFractionsExactOnZeroNoisePath) {
  ReleaseAnalyzer analyzer(log_);
  auto pred = query::MakeAtLeastOnes(3, 2);
  for (int64_t t : analyzer.WindowTimes()) {
    double truth = query::EvaluateOnDataset(*pred, *ds_, t).value();
    EXPECT_NEAR(analyzer.WindowFraction(t, *pred).value(), truth, 1e-12)
        << "t=" << t;
  }
}

TEST_F(ReleaseAnalyzerTest, BiasedFractionExceedsDebiased) {
  ReleaseAnalyzer analyzer(log_);
  auto pred = query::MakeAtLeastOnes(3, 1);  // 7 matching bins
  double biased = analyzer.BiasedWindowFraction(8, *pred).value();
  double debiased = analyzer.WindowFraction(8, *pred).value();
  // The padding inflates the numerator by 7*npad against 8*npad added to
  // the denominator; for small true fractions the biased value is larger.
  EXPECT_GT(biased, debiased);
}

TEST_F(ReleaseAnalyzerTest, CumulativeFractionsExact) {
  ReleaseAnalyzer analyzer(log_);
  for (int64_t t : analyzer.CumulativeTimes()) {
    for (int64_t b = 0; b <= 4; ++b) {
      double truth =
          query::EvaluateCumulativeOnDataset(*ds_, t, b).value();
      EXPECT_NEAR(analyzer.CumulativeFraction(t, b).value(), truth, 1e-12)
          << "t=" << t << " b=" << b;
    }
  }
}

TEST_F(ReleaseAnalyzerTest, CountOccExactUsesReleasedRows) {
  ReleaseAnalyzer analyzer(log_);
  auto counts_t2 = ds_->CumulativeCounts(8).value();
  auto counts_t1 = ds_->CumulativeCounts(4).value();
  int64_t expected = counts_t2[2] - counts_t1[1];
  EXPECT_EQ(analyzer.CountOccExact(4, 8, 2).value(), expected);
}

TEST_F(ReleaseAnalyzerTest, MissingTimesAreNotFound) {
  ReleaseAnalyzer analyzer(log_);
  auto pred = query::MakeAllOnes(3);
  EXPECT_TRUE(analyzer.WindowFraction(1, *pred).status().IsNotFound());
  EXPECT_TRUE(analyzer.WindowFraction(99, *pred).status().IsNotFound());
  EXPECT_TRUE(analyzer.CumulativeFraction(99, 1).status().IsNotFound());
  EXPECT_TRUE(analyzer.CountOccExact(1, 99, 1).status().IsNotFound());
  EXPECT_TRUE(analyzer.CountOccExact(5, 5, 1).status().IsInvalidArgument());
}

TEST_F(ReleaseAnalyzerTest, RejectsOverWideQueries) {
  ReleaseAnalyzer analyzer(log_);
  auto wide = query::MakeAllOnes(4);
  EXPECT_FALSE(analyzer.WindowFraction(8, *wide).ok());
}

TEST_F(ReleaseAnalyzerTest, SurvivesCsvRoundTrip) {
  std::string path = ::testing::TempDir() + "/longdp_analyzer_log.csv";
  ASSERT_TRUE(log_.WriteCsv(path).ok());
  auto loaded = ReleaseLog::LoadCsv(path).value();
  ReleaseAnalyzer analyzer(loaded);
  auto pred = query::MakeConsecutiveOnes(3, 2);
  double truth = query::EvaluateOnDataset(*pred, *ds_, 6).value();
  EXPECT_NEAR(analyzer.WindowFraction(6, *pred).value(), truth, 1e-12);
  std::remove(path.c_str());
}

// A hostile release log read from disk: LoadCsv accepts any int64 bin, so
// every answer that adds or subtracts released values must refuse a result
// that leaves int64; wrapped, the all-bins count below reads as -2, a
// plausible-looking fraction of -0.2.
TEST(ReleaseAnalyzerForgedLogTest, OverflowingReleasedValuesAreRefused) {
  const std::string max = std::to_string(std::numeric_limits<int64_t>::max());
  const std::string neg_max = "-" + max;
  const std::string path = ::testing::TempDir() + "/longdp_forged_log.csv";
  {
    std::ofstream out(path);
    out << "kind,t,k,alphabet,npad,true_n,index,value\n"
        << "window,1,1,0,0,10,0," << max << "\n"
        << "window,1,1,0,0,10,1," << max << "\n"
        << "window,2,1,0,2,10,0,0\n"
        << "window,2,1,0,2,10,1," << neg_max << "\n"
        << "cumulative,1,0,0,0,0,0," << neg_max << "\n"
        << "cumulative,1,0,0,0,0,1,5\n"
        << "cumulative,2,0,0,0,0,0," << max << "\n"
        << "cumulative,2,0,0,0,0,1," << max << "\n"
        << "categorical,1,1,3,2,10,0," << neg_max << "\n"
        << "categorical,1,1,3,2,10,1,0\n"
        << "categorical,1,1,3,2,10,2,0\n";
  }
  auto loaded = ReleaseLog::LoadCsv(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ReleaseAnalyzer analyzer(loaded.value());

  auto every_bin = query::MakeAtLeastOnes(1, 0);
  auto ones = query::MakeAllOnes(1);
  // Histogram count: INT64_MAX + INT64_MAX.
  EXPECT_TRUE(analyzer.WindowFraction(1, *every_bin).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(analyzer.BiasedWindowFraction(1, *every_bin).status()
                  .IsInvalidArgument());
  // Population sum: the count of one bin fits, the total does not.
  EXPECT_TRUE(analyzer.BiasedWindowFraction(1, *ones).status()
                  .IsInvalidArgument());
  // Debiasing: -INT64_MAX - npad.
  EXPECT_TRUE(analyzer.WindowFraction(2, *ones).status().IsInvalidArgument());
  // CountOcc: INT64_MAX - (-INT64_MAX).
  EXPECT_TRUE(analyzer.CountOccExact(1, 2, 1).status().IsInvalidArgument());
  // Categorical debiasing: -INT64_MAX - npad.
  EXPECT_TRUE(analyzer.CategoricalBinFraction(1, 0).status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace core
}  // namespace longdp
