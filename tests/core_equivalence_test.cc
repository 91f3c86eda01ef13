// Reference-equivalence property tests for the zero-noise path.
//
// At rho = +infinity every noise draw is exactly 0, so the synthesizers'
// stage-1 releases must coincide with the plain (non-private) statistics of
// the input — which is exactly what core/recompute_baseline computes from
// scratch each round. These tests run randomized horizons, populations, and
// window widths (from a fixed meta-seed, so failures reproduce) and assert:
//
//   * FixedWindowSynthesizer (npad = 0) releases the true window histogram,
//     identical to RecomputeBaseline's fresh histogram every round;
//   * CategoricalWindowSynthesizer with A = 2 matches RecomputeBaseline
//     bin-for-bin (the base-2 pattern code equals util::Pattern's encoding);
//   * CumulativeSynthesizer releases the exact Hamming-weight threshold
//     counts, and its materialized records reproduce them.
//
// The optimized hot path must keep all of this exact: any scratch-buffer
// reuse bug that leaks state across rounds breaks equality immediately.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "core/categorical_synthesizer.h"
#include "core/cumulative_synthesizer.h"
#include "core/fixed_window_synthesizer.h"
#include "core/recompute_baseline.h"
#include "util/substream.h"
#include "util/thread_pool.h"

namespace longdp {
namespace core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Every equivalence property is re-checked under each of these observe-
// phase thread counts: the sharded stage-1 path must stay exact, not just
// the serial one.
const int kThreadCounts[] = {1, 2, 8};

std::unique_ptr<util::ThreadPool> MakePool(int threads) {
  if (threads <= 1) return nullptr;
  return std::make_unique<util::ThreadPool>(threads);
}

// One random (n, T, k, p) configuration per trial, small enough that 30
// trials stay well under a second but varied enough to hit k = 1 edge
// cases, tiny populations, and T ≫ k.
struct Config {
  int64_t n;
  int64_t T;
  int k;
  double p;
};

Config RandomConfig(util::SubstreamRng* meta) {
  Config c;
  c.k = static_cast<int>(meta->UniformInt(4)) + 1;       // 1..4
  c.T = c.k + static_cast<int64_t>(meta->UniformInt(14));  // k..k+13
  c.n = 1 + static_cast<int64_t>(meta->UniformInt(300));   // 1..300
  c.p = 0.05 + 0.9 * meta->UniformDouble();
  return c;
}

std::vector<std::vector<uint8_t>> RandomRounds(const Config& c,
                                               util::SubstreamRng* meta) {
  std::vector<std::vector<uint8_t>> rounds(static_cast<size_t>(c.T));
  for (auto& round : rounds) {
    round.resize(static_cast<size_t>(c.n));
    for (auto& b : round) b = meta->Bernoulli(c.p) ? 1 : 0;
  }
  return rounds;
}

TEST(ZeroNoiseEquivalenceTest, FixedWindowMatchesRecomputeBaseline) {
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto pool = MakePool(threads);
  util::SubstreamRng meta(0xE0E1u, util::substream::kGeneric);
  for (int trial = 0; trial < 30; ++trial) {
    Config c = RandomConfig(&meta);
    auto rounds = RandomRounds(c, &meta);

    FixedWindowSynthesizer::Options fopt;
    fopt.horizon = c.T;
    fopt.window_k = c.k;
    fopt.rho = kInf;
    fopt.npad = 0;
    fopt.pool = pool.get();
    auto synth = FixedWindowSynthesizer::Create(fopt).value();

    RecomputeBaseline::Options bopt;
    bopt.horizon = c.T;
    bopt.window_k = c.k;
    bopt.rho = kInf;
    auto baseline = RecomputeBaseline::Create(bopt).value();

    for (int64_t t = 1; t <= c.T; ++t) {
      const auto bits =
          data::PackedRound::FromBytes(rounds[static_cast<size_t>(t - 1)])
              .value();
      ASSERT_TRUE(synth->ObserveRound(bits.view()).ok());
      ASSERT_TRUE(baseline->ObserveRound(bits.view()).ok());
      if (t < c.k) continue;
      EXPECT_EQ(synth->SyntheticHistogram(), baseline->CurrentHistogram())
          << "trial " << trial << " (n=" << c.n << " T=" << c.T
          << " k=" << c.k << ") at t=" << t;
      EXPECT_EQ(synth->cohort().num_records(), c.n);
    }
    EXPECT_EQ(synth->stats().negative_clamps, 0);
  }
  }
}

TEST(ZeroNoiseEquivalenceTest, CategoricalBinaryMatchesRecomputeBaseline) {
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto pool = MakePool(threads);
  util::SubstreamRng meta(0xE0E2u, util::substream::kGeneric);
  for (int trial = 0; trial < 30; ++trial) {
    Config c = RandomConfig(&meta);
    auto rounds = RandomRounds(c, &meta);

    CategoricalWindowSynthesizer::Options copt;
    copt.horizon = c.T;
    copt.window_k = c.k;
    copt.alphabet = 2;
    copt.rho = kInf;
    copt.npad = 0;
    copt.pool = pool.get();
    auto synth = CategoricalWindowSynthesizer::Create(copt).value();

    RecomputeBaseline::Options bopt;
    bopt.horizon = c.T;
    bopt.window_k = c.k;
    bopt.rho = kInf;
    auto baseline = RecomputeBaseline::Create(bopt).value();

    for (int64_t t = 1; t <= c.T; ++t) {
      const auto& bits = rounds[static_cast<size_t>(t - 1)];
      ASSERT_TRUE(synth->ObserveRound(bits).ok());
      ASSERT_TRUE(baseline->ObserveRound(
                      data::PackedRound::FromBytes(bits).value().view())
                      .ok());
      if (t < c.k) continue;
      // Base-2 categorical codes and util::Pattern both put the oldest
      // symbol in the most significant position, so bins align 1:1.
      EXPECT_EQ(synth->SyntheticHistogram(), baseline->CurrentHistogram())
          << "trial " << trial << " (n=" << c.n << " T=" << c.T
          << " k=" << c.k << ") at t=" << t;
      EXPECT_EQ(synth->cohort().num_records(), c.n);
    }
    EXPECT_EQ(synth->stats().negative_clamps, 0);
  }
  }
}

// Categorical with a larger alphabet against a direct histogram recompute
// (RecomputeBaseline is binary-only, so the reference is computed inline).
TEST(ZeroNoiseEquivalenceTest, CategoricalMatchesExactHistogram) {
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto pool = MakePool(threads);
  util::SubstreamRng meta(0xE0E3u, util::substream::kGeneric);
  for (int trial = 0; trial < 20; ++trial) {
    const int A = 2 + static_cast<int>(meta.UniformInt(3));  // 2..4
    const int k = 1 + static_cast<int>(meta.UniformInt(3));  // 1..3
    const int64_t T = k + static_cast<int64_t>(meta.UniformInt(10));
    const int64_t n = 1 + static_cast<int64_t>(meta.UniformInt(200));

    std::vector<std::vector<uint8_t>> rounds(static_cast<size_t>(T));
    for (auto& round : rounds) {
      round.resize(static_cast<size_t>(n));
      for (auto& s : round) {
        s = static_cast<uint8_t>(
            meta.UniformInt(static_cast<uint64_t>(A)));
      }
    }

    CategoricalWindowSynthesizer::Options copt;
    copt.horizon = T;
    copt.window_k = k;
    copt.alphabet = A;
    copt.rho = kInf;
    copt.npad = 0;
    copt.pool = pool.get();
    auto synth = CategoricalWindowSynthesizer::Create(copt).value();
    const uint64_t bins =
        SyntheticCohort::NumBins(k, A).value();

    std::vector<uint64_t> window(static_cast<size_t>(n), 0);
    for (int64_t t = 1; t <= T; ++t) {
      const auto& symbols = rounds[static_cast<size_t>(t - 1)];
      ASSERT_TRUE(synth->ObserveRound(symbols).ok());
      for (int64_t i = 0; i < n; ++i) {
        window[static_cast<size_t>(i)] =
            (window[static_cast<size_t>(i)] * static_cast<uint64_t>(A) +
             symbols[static_cast<size_t>(i)]) %
            bins;
      }
      if (t < k) continue;
      std::vector<int64_t> want(bins, 0);
      for (uint64_t w : window) ++want[w];
      EXPECT_EQ(synth->SyntheticHistogram(), want)
          << "trial " << trial << " (n=" << n << " T=" << T << " k=" << k
          << " A=" << A << ") at t=" << t;
    }
  }
  }
}

TEST(ZeroNoiseEquivalenceTest, CumulativeMatchesExactThresholdCounts) {
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto pool = MakePool(threads);
  util::SubstreamRng meta(0xE0E4u, util::substream::kGeneric);
  for (int trial = 0; trial < 30; ++trial) {
    const int64_t T = 1 + static_cast<int64_t>(meta.UniformInt(16));
    const int64_t n = 1 + static_cast<int64_t>(meta.UniformInt(300));
    const double p = 0.05 + 0.9 * meta.UniformDouble();

    std::vector<std::vector<uint8_t>> rounds(static_cast<size_t>(T));
    for (auto& round : rounds) {
      round.resize(static_cast<size_t>(n));
      for (auto& b : round) b = meta.Bernoulli(p) ? 1 : 0;
    }

    CumulativeSynthesizer::Options opt;
    opt.horizon = T;
    opt.rho = kInf;
    opt.pool = pool.get();
    auto synth = CumulativeSynthesizer::Create(opt).value();

    std::vector<int64_t> weight(static_cast<size_t>(n), 0);
    for (int64_t t = 1; t <= T; ++t) {
      const auto& bits = rounds[static_cast<size_t>(t - 1)];
      ASSERT_TRUE(synth->ObserveRound(bits).ok());
      for (int64_t i = 0; i < n; ++i) {
        weight[static_cast<size_t>(i)] +=
            bits[static_cast<size_t>(i)];
      }
      // Exact threshold counts S^t_b = #{i : weight_i >= b}.
      std::vector<int64_t> want(static_cast<size_t>(T) + 1, 0);
      for (int64_t b = 0; b <= T; ++b) {
        int64_t count = 0;
        for (int64_t w : weight) {
          if (w >= b) ++count;
        }
        want[static_cast<size_t>(b)] = count;
      }
      EXPECT_EQ(synth->released_thresholds(), want)
          << "trial " << trial << " (n=" << n << " T=" << T << ") at t="
          << t;
      EXPECT_EQ(synth->SyntheticThresholdCounts(), want)
          << "trial " << trial << " at t=" << t;
    }
  }
  }
}

// A rejected round (bad entry anywhere in the batch) must leave the
// synthesizer state completely untouched: continuing with valid rounds
// must release exactly what a synthesizer that never saw the bad round
// releases. Regression test for a partial-mutation heap overflow where a
// mid-validation bailout left the true-weight state half-incremented and
// a later round indexed past the increment scratch.
TEST(ZeroNoiseEquivalenceTest, RejectedRoundLeavesStateUntouched) {
  const int64_t n = 50, T = 6;
  util::SubstreamRng meta(0xE0E5u, util::substream::kGeneric);
  std::vector<std::vector<uint8_t>> rounds(static_cast<size_t>(T));
  for (auto& round : rounds) {
    round.resize(static_cast<size_t>(n));
    for (auto& b : round) b = meta.Bernoulli(0.5) ? 1 : 0;
  }
  std::vector<uint8_t> bad(static_cast<size_t>(n), 0);
  bad.back() = 7;  // the prefix is valid; rejection happens at the end

  CumulativeSynthesizer::Options opt;
  opt.horizon = T;
  opt.rho = kInf;
  auto dirty = CumulativeSynthesizer::Create(opt).value();
  auto clean = CumulativeSynthesizer::Create(opt).value();
  for (int64_t t = 1; t <= T; ++t) {
    const auto& bits = rounds[static_cast<size_t>(t - 1)];
    ASSERT_TRUE(dirty->ObserveRound(bad).IsInvalidArgument());
    ASSERT_TRUE(dirty->ObserveRound(bits).ok());
    ASSERT_TRUE(clean->ObserveRound(bits).ok());
    EXPECT_EQ(dirty->released_thresholds(), clean->released_thresholds())
        << "at t=" << t;
  }

  FixedWindowSynthesizer::Options fopt;
  fopt.horizon = T;
  fopt.window_k = 2;
  fopt.rho = kInf;
  fopt.npad = 0;
  auto fdirty = FixedWindowSynthesizer::Create(fopt).value();
  auto fclean = FixedWindowSynthesizer::Create(fopt).value();
  for (int64_t t = 1; t <= T; ++t) {
    const auto& bits = rounds[static_cast<size_t>(t - 1)];
    ASSERT_TRUE(
        fdirty->ObserveRound(bad).IsInvalidArgument());
    ASSERT_TRUE(fdirty->ObserveRound(bits).ok());
    ASSERT_TRUE(fclean->ObserveRound(bits).ok());
    if (t < fopt.window_k) continue;
    EXPECT_EQ(fdirty->SyntheticHistogram(), fclean->SyntheticHistogram())
        << "at t=" << t;
  }
}

}  // namespace
}  // namespace core
}  // namespace longdp
