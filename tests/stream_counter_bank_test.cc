#include "stream/counter_bank.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "stream/budget_split.h"
#include "stream/counter_factory.h"
#include "util/substream.h"

namespace longdp {
namespace stream {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

CounterBank::Options MakeOptions(int64_t horizon, int64_t population,
                                 double rho, uint64_t seed = 0) {
  CounterBank::Options options;
  options.horizon = horizon;
  options.population = population;
  options.total_rho = rho;
  options.seed = seed;
  return options;
}

TEST(BudgetSplitTest, UniformSumsToTotal) {
  auto r = SplitBudget(BudgetSplit::kUniform, 12, 0.005);
  ASSERT_TRUE(r.ok());
  double sum = 0.0;
  for (double s : r.value()) sum += s;
  EXPECT_DOUBLE_EQ(sum, 0.005);
  EXPECT_EQ(r.value().size(), 12u);
}

TEST(BudgetSplitTest, CubicLogSumsToTotalAndFavorsLongStreams) {
  auto r = SplitBudget(BudgetSplit::kCubicLogLevels, 12, 0.005);
  ASSERT_TRUE(r.ok());
  const auto& shares = r.value();
  double sum = 0.0;
  for (double s : shares) sum += s;
  EXPECT_DOUBLE_EQ(sum, 0.005);
  // Counter b=1 runs over the longest stream (T steps) and must receive at
  // least as much budget as b=T (stream length 1).
  EXPECT_GT(shares.front(), shares.back());
}

TEST(BudgetSplitTest, CubicLogWeightsMatchFormula) {
  const int64_t kT = 12;
  auto r = SplitBudget(BudgetSplit::kCubicLogLevels, kT, 1.0);
  ASSERT_TRUE(r.ok());
  double denom = 0.0;
  std::vector<double> l3(static_cast<size_t>(kT));
  for (int64_t b = 1; b <= kT; ++b) {
    double l = static_cast<double>(LevelsForThreshold(kT, b));
    l3[static_cast<size_t>(b - 1)] = l * l * l;
    denom += l3[static_cast<size_t>(b - 1)];
  }
  for (int64_t b = 1; b <= kT; ++b) {
    EXPECT_NEAR(r.value()[static_cast<size_t>(b - 1)],
                l3[static_cast<size_t>(b - 1)] / denom, 1e-9)
        << "b=" << b;
  }
}

TEST(BudgetSplitTest, LevelsForThreshold) {
  // T=12: b=1 -> len 12 -> ceil(log2 12)=4; b=11 -> len 2 -> 1; b=12 -> 1.
  EXPECT_EQ(LevelsForThreshold(12, 1), 4);
  EXPECT_EQ(LevelsForThreshold(12, 5), 3);
  EXPECT_EQ(LevelsForThreshold(12, 11), 1);
  EXPECT_EQ(LevelsForThreshold(12, 12), 1);
}

TEST(BudgetSplitTest, RejectsBadArgs) {
  EXPECT_FALSE(SplitBudget(BudgetSplit::kUniform, 0, 1.0).ok());
  EXPECT_FALSE(SplitBudget(BudgetSplit::kUniform, 5, 0.0).ok());
}

TEST(BudgetSplitTest, InfiniteBudgetAllInfinite) {
  auto r = SplitBudget(BudgetSplit::kUniform, 3, kInf);
  ASSERT_TRUE(r.ok());
  for (double s : r.value()) EXPECT_EQ(s, kInf);
}

TEST(BudgetSplitTest, NamesRoundTrip) {
  EXPECT_EQ(BudgetSplitFromName("uniform").value(), BudgetSplit::kUniform);
  EXPECT_EQ(BudgetSplitFromName("cubic-log").value(),
            BudgetSplit::kCubicLogLevels);
  EXPECT_FALSE(BudgetSplitFromName("nope").ok());
  EXPECT_STREQ(BudgetSplitName(BudgetSplit::kUniform), "uniform");
}

TEST(CounterBankTest, CreateValidates) {
  EXPECT_FALSE(CounterBank::Create(MakeOptions(0, 10, 1.0)).ok());
  EXPECT_FALSE(CounterBank::Create(MakeOptions(5, -1, 1.0)).ok());
  EXPECT_FALSE(CounterBank::Create(MakeOptions(5, 10, 0.0)).ok());
  EXPECT_TRUE(CounterBank::Create(MakeOptions(5, 10, 1.0)).ok());
}

TEST(CounterBankTest, ChargesAccountantExactly) {
  dp::ZCdpAccountant accountant(0.005);
  auto bank = CounterBank::Create(MakeOptions(12, 100, 0.005), &accountant);
  ASSERT_TRUE(bank.ok());
  EXPECT_NEAR(accountant.spent(), 0.005, 1e-12);
  EXPECT_EQ(accountant.ledger().size(), 12u);
}

TEST(CounterBankTest, ZeroNoiseReproducesTrueThresholds) {
  // Five users gaining weight at different rates; with infinite budget the
  // monotonized rows equal the true S^t_b exactly.
  const int64_t kT = 6, kN = 5;
  auto bank = CounterBank::Create(MakeOptions(kT, kN, kInf));
  ASSERT_TRUE(bank.ok());
  // User i reports 1 in rounds 1..i (i.e. z^t counts users with new weight).
  std::vector<int64_t> weight(kN, 0);
  for (int64_t t = 1; t <= kT; ++t) {
    std::vector<int64_t> z(kT, 0);
    std::vector<int64_t> true_s(kT + 1, 0);
    for (int64_t i = 0; i < kN; ++i) {
      bool bit = t <= (i + 1);  // user i contributes 1 for rounds 1..i+1
      if (bit) {
        ++z[weight[i]];
        ++weight[i];
      }
    }
    true_s[0] = kN;
    for (int64_t b = 1; b <= kT; ++b) {
      int64_t c = 0;
      for (int64_t i = 0; i < kN; ++i) {
        if (weight[i] >= b) ++c;
      }
      true_s[b] = c;
    }
    ASSERT_TRUE(bank.value()->ObserveRound(z).ok());
    EXPECT_EQ(bank.value()->monotone_row(), true_s) << "t=" << t;
  }
}

TEST(CounterBankTest, MonotonizationInvariants) {
  // With real noise, the released rows satisfy both Lemma 4.2 clamps:
  // row_t[b] >= row_{t-1}[b] and row_t[b] <= row_{t-1}[b-1].
  const int64_t kT = 12, kN = 500;
  auto bank = CounterBank::Create(MakeOptions(kT, kN, 0.01));
  ASSERT_TRUE(bank.ok());
  std::vector<int64_t> prev(kT + 1, 0);
  prev[0] = kN;
  for (int64_t t = 1; t <= kT; ++t) {
    std::vector<int64_t> z(kT, 0);
    z[static_cast<size_t>(t - 1)] = 30;  // 30 users reach weight t each round
    ASSERT_TRUE(bank.value()->ObserveRound(z).ok());
    const auto& r = bank.value()->monotone_row();
    EXPECT_EQ(r[0], kN);
    for (int64_t b = 1; b <= kT; ++b) {
      EXPECT_GE(r[b], prev[b]) << "t=" << t << " b=" << b;
      EXPECT_LE(r[b], prev[b - 1]) << "t=" << t << " b=" << b;
    }
    prev = r;
  }
}

TEST(CounterBankTest, ImpossibleThresholdsStayZero) {
  // At time t, nobody can have weight > t; monotonization must pin those
  // entries at zero regardless of noise.
  const int64_t kT = 10, kN = 1000;
  auto bank = CounterBank::Create(MakeOptions(kT, kN, 0.005));
  ASSERT_TRUE(bank.ok());
  for (int64_t t = 1; t <= kT; ++t) {
    std::vector<int64_t> z(kT, 0);
    z[0] = (t == 1) ? 100 : 0;
    ASSERT_TRUE(bank.value()->ObserveRound(z).ok());
    for (int64_t b = t + 1; b <= kT; ++b) {
      EXPECT_EQ(bank.value()->monotone_row()[static_cast<size_t>(b)], 0)
          << "t=" << t << " b=" << b;
    }
  }
}

TEST(CounterBankTest, Lemma42ErrorDomination) {
  // Property check of Lemma 4.2: the monotonized error never exceeds the
  // max of the raw error at (t, b) and the monotonized errors at
  // (t-1, b) and (t-1, b-1).
  const int64_t kT = 12, kN = 2000;
  util::SubstreamRng rng(5, util::substream::kGeneric);
  for (int trial = 0; trial < 20; ++trial) {
    auto bank = CounterBank::Create(
        MakeOptions(kT, kN, 0.02, static_cast<uint64_t>(trial)));
    ASSERT_TRUE(bank.ok());
    // Random true trajectory.
    std::vector<int64_t> weight(kN, 0);
    std::vector<double> prev_err(kT + 1, 0.0);
    for (int64_t t = 1; t <= kT; ++t) {
      std::vector<int64_t> z(kT, 0);
      for (int64_t i = 0; i < kN; ++i) {
        if (weight[i] < t && rng.Bernoulli(0.2)) {
          ++z[weight[i]];
          ++weight[i];
        }
      }
      ASSERT_TRUE(bank.value()->ObserveRound(z).ok());
      const auto& mono = bank.value()->monotone_row();
      const auto& raw = bank.value()->raw_row();
      std::vector<double> cur_err(kT + 1, 0.0);
      for (int64_t b = 1; b <= std::min(t, kT); ++b) {
        int64_t true_s = 0;
        for (int64_t i = 0; i < kN; ++i) {
          if (weight[i] >= b) ++true_s;
        }
        double mono_err = std::fabs(static_cast<double>(mono[b] - true_s));
        double raw_err = std::fabs(static_cast<double>(raw[b] - true_s));
        double dominator =
            std::max({raw_err, prev_err[b], prev_err[b - 1]});
        EXPECT_LE(mono_err, dominator + 1e-9)
            << "t=" << t << " b=" << b << " trial=" << trial;
        cur_err[b] = mono_err;
      }
      prev_err = cur_err;
    }
  }
}

TEST(CounterBankTest, RejectsNonzeroFutureIncrements) {
  auto bank = CounterBank::Create(MakeOptions(5, 10, kInf));
  ASSERT_TRUE(bank.ok());
  std::vector<int64_t> z(5, 0);
  z[3] = 1;  // weight-4 increment at t=1 is impossible
  EXPECT_TRUE(bank.value()->ObserveRound(z).IsInvalidArgument());
}

TEST(CounterBankTest, RejectsWrongArity) {
  auto bank = CounterBank::Create(MakeOptions(5, 10, kInf));
  ASSERT_TRUE(bank.ok());
  std::vector<int64_t> z(4, 0);
  EXPECT_TRUE(bank.value()->ObserveRound(z).IsInvalidArgument());
}

TEST(CounterBankTest, RejectsPastHorizon) {
  auto bank = CounterBank::Create(MakeOptions(2, 10, kInf));
  ASSERT_TRUE(bank.ok());
  std::vector<int64_t> z(2, 0);
  ASSERT_TRUE(bank.value()->ObserveRound(z).ok());
  ASSERT_TRUE(bank.value()->ObserveRound(z).ok());
  EXPECT_TRUE(bank.value()->ObserveRound(z).IsOutOfRange());
}

TEST(CounterBankTest, SupportsAlternativeCounterFactories) {
  auto options = MakeOptions(8, 100, 0.1);
  options.factory = MakeCounterFactory("honaker").value();
  auto bank = CounterBank::Create(options);
  ASSERT_TRUE(bank.ok());
  std::vector<int64_t> z(8, 0);
  z[0] = 10;
  EXPECT_TRUE(bank.value()->ObserveRound(z).ok());
}

}  // namespace
}  // namespace stream
}  // namespace longdp
