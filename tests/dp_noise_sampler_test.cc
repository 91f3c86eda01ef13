// Stream-compatibility tests for dp::NoiseSampler: the batched sampler
// must consume exactly the words the one-shot dp:: functions consume, from
// the same cursor positions, and produce the same values — that contract
// (dp/noise_sampler.h) is what lets every call site switch to batching
// with no golden re-record. Also pins the hardened degenerate-parameter
// contract of both the batched and the one-shot samplers.

#include "dp/noise_sampler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "dp/discrete_gaussian.h"
#include "util/substream.h"
#include "util/thread_pool.h"

namespace longdp {
namespace dp {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(NoiseSamplerTest, GaussianDrawMatchesOneShotWordForWord) {
  for (double sigma2 : {0.5, 1.0, 7.0, 25.0, 900.0, 6000.0}) {
    const NoiseSampler sampler = NoiseSampler::Gaussian(sigma2);
    util::SubstreamRng batched(0x6A55u, util::substream::kGeneric);
    util::SubstreamRng serial(0x6A55u, util::substream::kGeneric);
    for (int i = 0; i < 300; ++i) {
      EXPECT_EQ(sampler.Draw(&batched),
                SampleDiscreteGaussian(sigma2, &serial))
          << "sigma2=" << sigma2 << " i=" << i;
      // Same words consumed: the cursors must track exactly, draw by draw.
      ASSERT_EQ(batched.cursor(), serial.cursor())
          << "sigma2=" << sigma2 << " i=" << i;
    }
  }
}

TEST(NoiseSamplerTest, LaplaceDrawMatchesOneShotWordForWord) {
  for (double s : {0.7, 1.0, 3.3, 10.0}) {
    const NoiseSampler sampler = NoiseSampler::Laplace(s);
    util::SubstreamRng batched(0x1AB5u, util::substream::kGeneric);
    util::SubstreamRng serial(0x1AB5u, util::substream::kGeneric);
    for (int i = 0; i < 300; ++i) {
      EXPECT_EQ(sampler.Draw(&batched), SampleDiscreteLaplace(s, &serial))
          << "s=" << s << " i=" << i;
      ASSERT_EQ(batched.cursor(), serial.cursor()) << "s=" << s << " i=" << i;
    }
  }
}

// Known answers at one fixed key: each row is a draw and the stream cursor
// after it, from a fresh stream. NoiseSampler and the one-shot chain must
// both reproduce the table, so a slip in either shows here, not only in the
// end-to-end goldens.
struct KnownDraw {
  int64_t value;
  uint64_t cursor;
};

constexpr uint64_t kKnownSeed = 0x4B41u;

TEST(NoiseSamplerTest, GaussianKnownAnswers) {
  const KnownDraw kDraws[] = {{-2, 7},  {-4, 14}, {-6, 41}, {2, 81},
                              {0, 126}, {0, 140}, {-1, 158}, {4, 189}};
  const NoiseSampler sampler = NoiseSampler::Gaussian(7.0);
  util::SubstreamRng batched(kKnownSeed, util::substream::kCounterNoise);
  util::SubstreamRng serial(kKnownSeed, util::substream::kCounterNoise);
  for (const KnownDraw& want : kDraws) {
    EXPECT_EQ(sampler.Draw(&batched), want.value);
    EXPECT_EQ(batched.cursor(), want.cursor);
    EXPECT_EQ(SampleDiscreteGaussian(7.0, &serial), want.value);
    EXPECT_EQ(serial.cursor(), want.cursor);
  }
}

TEST(NoiseSamplerTest, LaplaceKnownAnswers) {
  const KnownDraw kDraws[] = {{-2, 7}, {-4, 13}, {2, 17},  {1, 27},
                              {0, 30}, {-4, 36}, {-8, 52}, {-5, 64}};
  const NoiseSampler sampler = NoiseSampler::Laplace(3.3);
  util::SubstreamRng batched(kKnownSeed, util::substream::kCounterNoise);
  util::SubstreamRng serial(kKnownSeed, util::substream::kCounterNoise);
  for (const KnownDraw& want : kDraws) {
    EXPECT_EQ(sampler.Draw(&batched), want.value);
    EXPECT_EQ(batched.cursor(), want.cursor);
    EXPECT_EQ(SampleDiscreteLaplace(3.3, &serial), want.value);
    EXPECT_EQ(serial.cursor(), want.cursor);
  }
}

TEST(NoiseSamplerTest, FillLeavesMatchesPerLeafOneShot) {
  const double sigma2 = 49.0;
  const NoiseSampler sampler = NoiseSampler::Gaussian(sigma2);
  const util::SubstreamRng parent(0xF111u, util::substream::kHistogramNoise);
  const size_t count = 257;
  std::vector<int64_t> out(count);
  sampler.FillLeaves(parent, count, out.data());
  for (size_t i = 0; i < count; ++i) {
    util::SubstreamRng leaf = parent.Leaf(static_cast<uint64_t>(i));
    EXPECT_EQ(out[i], SampleDiscreteGaussian(sigma2, &leaf)) << "i=" << i;
  }
}

TEST(NoiseSamplerTest, FillLeavesShardingIsValueInvariant) {
  const NoiseSampler sampler = NoiseSampler::Gaussian(900.0);
  const util::SubstreamRng parent(0x5EEDu, util::substream::kHistogramNoise);
  const size_t count = 1000;
  std::vector<int64_t> serial_out(count), pooled_out(count);
  sampler.FillLeaves(parent, count, serial_out.data());
  util::ThreadPool pool(4);
  sampler.FillLeaves(parent, count, pooled_out.data(), &pool);
  EXPECT_EQ(serial_out, pooled_out);
}

TEST(NoiseSamplerTest, DegenerateParamsDrawZeroWithoutConsumingWords) {
  for (double param : {0.0, -3.5, kNan}) {
    for (const NoiseSampler& sampler :
         {NoiseSampler::Gaussian(param), NoiseSampler::Laplace(param)}) {
      EXPECT_TRUE(sampler.degenerate());
      util::SubstreamRng rng(0xDE6Eu, util::substream::kGeneric);
      const uint64_t cursor_before = rng.cursor();
      for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(sampler.Draw(&rng), 0);
      }
      EXPECT_EQ(rng.cursor(), cursor_before);
      std::vector<int64_t> out(64, -1);
      sampler.FillLeaves(rng, out.size(), out.data());
      for (int64_t v : out) EXPECT_EQ(v, 0);
    }
  }
}

TEST(NoiseSamplerTest, PositiveParamsAreNotDegenerate) {
  EXPECT_FALSE(NoiseSampler::Gaussian(1e-6).degenerate());
  EXPECT_FALSE(NoiseSampler::Laplace(1e-6).degenerate());
}

// Regression tests for the hardened one-shot guards: a non-positive or NaN
// scale is a documented no-op (returns 0, consumes no words) rather than
// undefined behavior, in every build mode.
TEST(DpEdgeCaseTest, OneShotGuardsReturnZeroAndConsumeNothing) {
  for (double param : {0.0, -1.0, kNan}) {
    util::SubstreamRng rng(0x6D6Du, util::substream::kGeneric);
    const uint64_t cursor_before = rng.cursor();
    EXPECT_EQ(SampleDiscreteGaussian(param, &rng), 0) << "param=" << param;
    EXPECT_EQ(SampleDiscreteLaplace(param, &rng), 0) << "param=" << param;
    EXPECT_EQ(rng.cursor(), cursor_before) << "param=" << param;
  }
  // Bernoulli(exp(-gamma)) with gamma <= 0 is certainly-true, no words.
  util::SubstreamRng rng(0x6D6Eu, util::substream::kGeneric);
  const uint64_t cursor_before = rng.cursor();
  EXPECT_TRUE(SampleBernoulliExpNeg(0.0, &rng));
  EXPECT_TRUE(SampleBernoulliExpNeg(-2.0, &rng));
  EXPECT_EQ(rng.cursor(), cursor_before);
}

}  // namespace
}  // namespace dp
}  // namespace longdp
