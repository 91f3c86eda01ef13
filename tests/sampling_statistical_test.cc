// Statistical acceptance tests for the sampling primitives. The paper's
// utility analysis assumes stage 2's selections are UNIFORM — goldens pin
// the exact seeded sequence and the zero-noise suite pins counts, but
// neither would notice a faster sampler that is subtly biased (a wrong
// Lemire threshold, an off-by-one shuffle bound). These tests close that
// gap with chi-squared goodness-of-fit checks at fixed seeds and generous
// alpha, so they are deterministic for CI yet sensitive to any gross
// non-uniformity.
//
// Thresholds: for df degrees of freedom the chi-squared statistic has mean
// df and variance 2*df; every test gates at df + 6*sqrt(2*df), far beyond
// the ~1e-9 one-sided tail, so a failure means a real defect, not an
// unlucky seed.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "util/batch_sampler.h"
#include "util/substream.h"

namespace longdp {
namespace util {
namespace {

double Chi2Threshold(double df) { return df + 6.0 * std::sqrt(2.0 * df); }

double Chi2Uniform(const std::vector<int64_t>& observed, double expected) {
  double chi2 = 0.0;
  for (int64_t o : observed) {
    const double d = static_cast<double>(o) - expected;
    chi2 += d * d / expected;
  }
  return chi2;
}

TEST(SamplingStatisticalTest, BoundedBulkIsUniform) {
  // Non-power-of-two bounds are the ones a broken rejection threshold
  // skews; 2^32 + 1 additionally exercises the high-word/low-word split of
  // the multiply-shift (binned mod a small prime).
  struct Case {
    uint64_t bound;
    uint64_t seed;
  };
  for (const Case& c : {Case{7, 101}, Case{1000, 102}, Case{12289, 103}}) {
    const size_t kDraws = 400000;
    SubstreamRng rng(c.seed);
    BatchSampler sampler(&rng);
    std::vector<uint64_t> draws(kDraws);
    sampler.BoundedBulk(c.bound, draws.data(), kDraws);
    std::vector<int64_t> hist(c.bound, 0);
    for (uint64_t v : draws) {
      ASSERT_LT(v, c.bound);
      ++hist[static_cast<size_t>(v)];
    }
    const double expected =
        static_cast<double>(kDraws) / static_cast<double>(c.bound);
    const double df = static_cast<double>(c.bound - 1);
    EXPECT_LT(Chi2Uniform(hist, expected), Chi2Threshold(df))
        << "bound=" << c.bound;
  }
}

TEST(SamplingStatisticalTest, BoundedBulkLargeBoundResiduesUniform) {
  const uint64_t kBound = (uint64_t{1} << 32) + 1;
  const uint64_t kBins = 127;
  const size_t kDraws = 400000;
  SubstreamRng rng(104);
  BatchSampler sampler(&rng);
  std::vector<uint64_t> draws(kDraws);
  sampler.BoundedBulk(kBound, draws.data(), kDraws);
  std::vector<int64_t> hist(kBins, 0);
  for (uint64_t v : draws) {
    ASSERT_LT(v, kBound);
    ++hist[static_cast<size_t>(v % kBins)];
  }
  // kBound mod kBins != 0 introduces a relative depth skew of ~kBins/kBound
  // (< 3e-8), far below the chi-squared floor at this sample size.
  const double expected =
      static_cast<double>(kDraws) / static_cast<double>(kBins);
  EXPECT_LT(Chi2Uniform(hist, expected),
            Chi2Threshold(static_cast<double>(kBins - 1)));
}

TEST(SamplingStatisticalTest, SingleBoundedMatchesBulkDistribution) {
  // The single-draw path shares the conversion but not the prefetch loop;
  // check it independently.
  const uint64_t kBound = 1000;
  const size_t kDraws = 300000;
  SubstreamRng rng(105);
  BatchSampler sampler(&rng);
  std::vector<int64_t> hist(kBound, 0);
  for (size_t i = 0; i < kDraws; ++i) {
    ++hist[static_cast<size_t>(sampler.Bounded(kBound))];
  }
  const double expected =
      static_cast<double>(kDraws) / static_cast<double>(kBound);
  EXPECT_LT(Chi2Uniform(hist, expected),
            Chi2Threshold(static_cast<double>(kBound - 1)));
}

TEST(SamplingStatisticalTest, PartialShufflePositionOccupancyUniform) {
  // After PartialShuffle(n, k), each of the k prefix positions must be
  // occupied by every element with probability 1/n. This is the property
  // stage 2 actually consumes: position p holding element e uniformly is
  // what makes the promoted subsets (and their order) unbiased.
  const int64_t kN = 12, kK = 4;
  const int kTrials = 120000;
  SubstreamRng rng(106);
  BatchSampler sampler(&rng);
  std::vector<std::vector<int64_t>> occupancy(
      static_cast<size_t>(kK), std::vector<int64_t>(static_cast<size_t>(kN), 0));
  std::vector<int64_t> v(static_cast<size_t>(kN));
  for (int trial = 0; trial < kTrials; ++trial) {
    std::iota(v.begin(), v.end(), 0);
    sampler.PartialShuffle(v.data(), kN, kK);
    for (int64_t p = 0; p < kK; ++p) {
      ++occupancy[static_cast<size_t>(p)]
                 [static_cast<size_t>(v[static_cast<size_t>(p)])];
    }
  }
  const double expected =
      static_cast<double>(kTrials) / static_cast<double>(kN);
  for (int64_t p = 0; p < kK; ++p) {
    EXPECT_LT(Chi2Uniform(occupancy[static_cast<size_t>(p)], expected),
              Chi2Threshold(static_cast<double>(kN - 1)))
        << "position " << p;
  }
}

TEST(SamplingStatisticalTest, PartialShufflePrefixInclusionUniform) {
  // Element-level inclusion: each element lands in the selected prefix
  // with probability k/n, including at the k == n-1 near-full edge.
  for (int64_t kK : {3LL, 11LL}) {
    const int64_t kN = 12;
    const int kTrials = 120000;
    SubstreamRng rng(107 + static_cast<uint64_t>(kK));
    BatchSampler sampler(&rng);
    std::vector<int64_t> included(static_cast<size_t>(kN), 0);
    std::vector<int64_t> v(static_cast<size_t>(kN));
    for (int trial = 0; trial < kTrials; ++trial) {
      std::iota(v.begin(), v.end(), 0);
      sampler.PartialShuffle(v.data(), kN, kK);
      for (int64_t p = 0; p < kK; ++p) {
        ++included[static_cast<size_t>(v[static_cast<size_t>(p)])];
      }
    }
    // Inclusion counts are negatively correlated across elements, which
    // only shrinks the chi-squared statistic; the threshold stays valid.
    const double expected = static_cast<double>(kTrials) *
                            static_cast<double>(kK) /
                            static_cast<double>(kN);
    EXPECT_LT(Chi2Uniform(included, expected),
              Chi2Threshold(static_cast<double>(kN - 1)))
        << "k=" << kK;
  }
}

}  // namespace
}  // namespace util
}  // namespace longdp
