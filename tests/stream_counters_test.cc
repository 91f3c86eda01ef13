// Cross-implementation tests: every registered stream counter must satisfy
// the StreamCounter contract. TEST_P sweeps the registry.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "stream/counter_bank.h"
#include "stream/counter_factory.h"
#include "stream/honaker_counter.h"
#include "stream/matrix_counter.h"
#include "stream/naive_counters.h"
#include "stream/tree_counter.h"
#include "util/mathutil.h"
#include "util/substream.h"

namespace longdp {
namespace stream {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A keyed noise substream for a counter under test; distinct `i` gives an
// independent noise path.
util::SubstreamRng NoiseStream(uint64_t i) {
  return util::SubstreamRng(0xC0F3EE + i, util::substream::kCounterNoise);
}

// A registered counter built through its factory.
std::unique_ptr<StreamCounter> MakeByName(const std::string& name,
                                          int64_t horizon, double rho,
                                          const util::SubstreamRng& stream) {
  auto f = MakeCounterFactory(name).value();
  return f->Create(horizon, rho, stream).value();
}

class CounterContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<StreamCounter> Make(int64_t horizon, double rho,
                                      uint64_t stream_id = 0) {
    auto f = MakeCounterFactory(GetParam());
    EXPECT_TRUE(f.ok());
    auto c = f.value()->Create(horizon, rho, NoiseStream(stream_id));
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return std::move(c).value();
  }
};

TEST_P(CounterContractTest, FactoryValidatesArgs) {
  auto f = MakeCounterFactory(GetParam()).value();
  EXPECT_FALSE(f->Create(0, 1.0, NoiseStream(0)).ok());
  EXPECT_FALSE(f->Create(10, 0.0, NoiseStream(0)).ok());
  EXPECT_FALSE(f->Create(10, -1.0, NoiseStream(0)).ok());
  EXPECT_FALSE(f->Create(10, std::nan(""), NoiseStream(0)).ok());
  EXPECT_TRUE(f->Create(1, 0.1, NoiseStream(0)).ok());
}

TEST_P(CounterContractTest, NameMatchesRegistry) {
  auto counter = Make(8, 1.0);
  EXPECT_EQ(counter->name(), GetParam());
}

TEST_P(CounterContractTest, ZeroNoiseIsExact) {
  auto counter = Make(40, kInf);
  int64_t truth = 0;
  for (int64_t t = 1; t <= 40; ++t) {
    int64_t z = (t * 7) % 4;
    truth += z;
    auto r = counter->Observe(z);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), truth) << "t=" << t;
  }
}

TEST_P(CounterContractTest, TracksStepsAndHorizon) {
  auto counter = Make(5, 1.0);
  EXPECT_EQ(counter->steps(), 0);
  EXPECT_EQ(counter->horizon(), 5);
  ASSERT_TRUE(counter->Observe(1).ok());
  EXPECT_EQ(counter->steps(), 1);
}

TEST_P(CounterContractTest, RejectsPastHorizon) {
  auto counter = Make(2, 1.0);
  ASSERT_TRUE(counter->Observe(0).ok());
  ASSERT_TRUE(counter->Observe(0).ok());
  EXPECT_TRUE(counter->Observe(0).status().IsOutOfRange());
}

TEST_P(CounterContractTest, ReportsConfiguredRho) {
  auto counter = Make(8, 0.25);
  EXPECT_DOUBLE_EQ(counter->rho(), 0.25);
}

TEST_P(CounterContractTest, ErrorBoundIsMonotoneInBeta) {
  auto counter = Make(16, 0.1);
  // Smaller beta -> larger bound.
  EXPECT_GE(counter->ErrorBound(0.01, 7), counter->ErrorBound(0.1, 7));
  EXPECT_GE(counter->ErrorBound(0.1, 7), 0.0);
}

TEST_P(CounterContractTest, EmpiricalErrorWithinBound) {
  const int64_t kT = 16;
  const double kRho = 0.5;
  const double kBeta = 0.05;
  const int kTrials = 300;
  util::SubstreamRng rng(5, util::substream::kGeneric);
  int violations = 0, checks = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto counter = Make(kT, kRho, static_cast<uint64_t>(trial));
    int64_t truth = 0;
    for (int64_t t = 1; t <= kT; ++t) {
      int64_t z = static_cast<int64_t>(rng.UniformInt(3));
      truth += z;
      auto r = counter->Observe(z);
      ASSERT_TRUE(r.ok());
      if (std::fabs(static_cast<double>(r.value() - truth)) >
          counter->ErrorBound(kBeta, t)) {
        ++violations;
      }
      ++checks;
    }
  }
  EXPECT_LT(static_cast<double>(violations) / checks, kBeta * 1.5 + 0.01);
}

// Known answers at one fixed key: every registered counter's outputs,
// standalone at two horizons and as monotone rows of a CounterBank (which
// takes the Step path for tree counters and Observe for the rest). A
// refactor of the counters or the registry must keep every value; a
// change to them changes released data.
struct CounterKnownAnswers {
  std::vector<int64_t> t12;   // Observe outputs, T = 12, rho = 0.5
  std::vector<int64_t> t33;   // Observe outputs, T = 33, rho = 0.5
  std::vector<int64_t> bank;  // monotone rows t = 1..6, b = 0..6
};

const CounterKnownAnswers& KnownAnswers(const std::string& name) {
  static const std::map<std::string, CounterKnownAnswers> kAnswers = {
      {"tree",
       {{6, 7, 9, 11, 11, 17, 21, 15, 19, 18, 24, 24},
        {6, 7, 7, 11, 12, 17, 13, 15, 10, 18, 22, 24, 25, 27, 26, 34, 33, 37,
         40, 43, 48, 45, 45, 48, 47, 55, 60, 56, 61, 63, 68, 63, 61},
        {40, 4, 0, 0, 0, 0, 0, 40, 4, 4, 0, 0, 0, 0, 40, 4, 4, 0, 0, 0, 0, 40,
         5, 4, 4, 0, 0, 0, 40, 7, 5, 4, 3, 0, 0, 40, 9, 7, 4, 4, 0, 0}}},
      {"honaker",
       {{6, 8, 7, 11, 13, 17, 19, 17, 21, 21, 24, 26},
        {6, 7, 7, 10, 3, 12, 15, 15, 15, 19, 24, 26, 24, 30, 33, 34, 34, 35,
         34, 35, 41, 39, 40, 46, 46, 54, 56, 57, 61, 60, 65, 65, 64},
        {40, 4, 0, 0, 0, 0, 0, 40, 4, 4, 0, 0, 0, 0, 40, 4, 4, 0, 0, 0, 0, 40,
         5, 4, 4, 0, 0, 0, 40, 8, 5, 4, 1, 0, 0, 40, 9, 8, 4, 3, 0, 0}}},
      {"input-perturbation",
       {{3, 4, 5, 8, 9, 11, 14, 13, 13, 12, 15, 16},
        {3, 4, 5, 8, 9, 11, 14, 13, 13, 12, 15, 16, 17, 20, 21, 24, 26, 27, 30,
         29, 32, 34, 32, 36, 37, 40, 43, 42, 45, 45, 48, 48, 48},
        {40, 3, 0, 0, 0, 0, 0, 40, 3, 2, 0, 0, 0, 0, 40, 5, 3, 2, 0, 0, 0, 40,
         7, 5, 3, 0, 0, 0, 40, 11, 7, 5, 0, 0, 0, 40, 11, 11, 6, 0, 0, 0}}},
      {"recompute",
       {{2, 5, 7, 12, 12, 13, 21, 16, 20, 20, 24, 24},
        {-2, 3, 2, 9, 4, 14, 13, 20, 20, 25, 17, 29, 31, 33, 19, 32, 29, 47,
         44, 45, 45, 29, 46, 50, 55, 51, 52, 61, 68, 53, 66, 56, 69},
        {40, 5, 0, 0, 0, 0, 0, 40, 5, 5, 0, 0, 0, 0, 40, 6, 5, 2, 0, 0, 0, 40,
         7, 5, 5, 0, 0, 0, 40, 11, 6, 5, 1, 0, 0, 40, 11, 6, 6, 1, 1, 0}}},
      {"laplace-tree",
       {{2, -5, -8, 12, -5, 25, 22, 15, 20, 17, 26, 27},
        {-2, 8, 2, 14, 12, 15, 24, 14, 11, 19, 27, 22, 29, 25, 26, 21, 23, 20,
         18, 33, 33, 40, 53, 47, 55, 48, 20, 37, 41, 44, 44, 67, 72},
        {40, 4, 0, 0, 0, 0, 0, 40, 4, 4, 0, 0, 0, 0, 40, 4, 4, 2, 0, 0, 0, 40,
         5, 4, 4, 0, 0, 0, 40, 6, 4, 4, 3, 0, 0, 40, 12, 6, 4, 4, 3, 0}}},
      {"sqrt-matrix",
       {{3, 5, 6, 9, 13, 15, 19, 19, 22, 21, 22, 25},
        {3, 5, 6, 9, 10, 14, 18, 18, 21, 17, 20, 23, 23, 28, 28, 30, 33, 33,
         36, 37, 42, 45, 45, 47, 48, 53, 54, 55, 57, 58, 62, 63, 62},
        {40, 4, 0, 0, 0, 0, 0, 40, 4, 2, 0, 0, 0, 0, 40, 4, 4, 2, 0, 0, 0, 40,
         6, 4, 4, 0, 0, 0, 40, 9, 6, 4, 0, 0, 0, 40, 9, 9, 4, 2, 0, 0}}},
  };
  return kAnswers.at(name);
}

TEST_P(CounterContractTest, KnownAnswersAtFixedKey) {
  const CounterKnownAnswers& want = KnownAnswers(GetParam());
  for (const int64_t horizon : {int64_t{12}, int64_t{33}}) {
    auto counter = Make(horizon, 0.5, 7);
    std::vector<int64_t> got;
    for (int64_t t = 1; t <= horizon; ++t) {
      got.push_back(counter->Observe((3 * t + 1) % 5).value());
    }
    EXPECT_EQ(got, horizon == 12 ? want.t12 : want.t33) << "T=" << horizon;
  }

  CounterBank::Options options;
  options.horizon = 6;
  options.population = 40;
  options.total_rho = 2.0;
  options.seed = 0xBA4C;
  options.factory = MakeCounterFactory(GetParam()).value();
  auto bank = CounterBank::Create(options).value();
  std::vector<int64_t> rows;
  for (int64_t t = 1; t <= 6; ++t) {
    std::vector<int64_t> z(6, 0);
    for (int64_t b = 1; b <= t; ++b) {
      z[static_cast<size_t>(b - 1)] = (t + 2 * b) % 4;
    }
    ASSERT_TRUE(bank->ObserveRound(z).ok());
    rows.insert(rows.end(), bank->monotone_row().begin(),
                bank->monotone_row().end());
  }
  EXPECT_EQ(rows, want.bank);
}

INSTANTIATE_TEST_SUITE_P(
    AllCounters, CounterContractTest,
    ::testing::ValuesIn(RegisteredCounterNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(CounterFactoryTest, UnknownNameIsNotFound) {
  EXPECT_TRUE(MakeCounterFactory("bogus").status().IsNotFound());
}

TEST(CounterFactoryTest, RegistryListsAllImplementations) {
  EXPECT_EQ(RegisteredCounterNames().size(), 6u);
  for (const auto& name : RegisteredCounterNames()) {
    EXPECT_TRUE(MakeCounterFactory(name).ok()) << name;
  }
}

TEST(LaplaceTreeCounterTest, PureDpCalibration) {
  // epsilon = sqrt(2 rho) = 0.2; per-node scale = L / epsilon.
  TreeCounter c(12, 0.02, NoiseStream(0), dp::NoiseSampler::Kind::kLaplace);
  EXPECT_EQ(c.name(), "laplace-tree");
  EXPECT_EQ(c.node_noise().kind(), dp::NoiseSampler::Kind::kLaplace);
  EXPECT_EQ(c.levels(), 4);
  EXPECT_NEAR(c.node_noise().param(), 4.0 / 0.2, 1e-12);
}

TEST(LaplaceTreeCounterTest, HeavierTailsThanGaussianTree) {
  // At equal rho the Laplace tree's noise variance per node,
  // 2 e^{1/s}/(e^{1/s}-1)^2 ~ 2 s^2 = 2 L^2 / (2 rho) = L^2/rho, exceeds
  // the Gaussian tree's L/(2 rho) for L >= 1; check empirically at the
  // final step.
  const int64_t kT = 16;
  const double kRho = 0.125;
  const int kTrials = 1500;
  util::MomentAccumulator gaussian_err, laplace_err;
  for (int trial = 0; trial < kTrials; ++trial) {
    const uint64_t id = static_cast<uint64_t>(trial);
    auto g = MakeByName("tree", kT, kRho, NoiseStream(id));
    auto l =
        MakeByName("laplace-tree", kT, kRho, NoiseStream(id + 100000));
    int64_t truth = 0;
    int64_t rg = 0, rl = 0;
    for (int64_t t = 1; t <= 15; ++t) {
      truth += 2;
      rg = g->Observe(2).value();
      rl = l->Observe(2).value();
    }
    gaussian_err.Add(static_cast<double>(rg - truth));
    laplace_err.Add(static_cast<double>(rl - truth));
  }
  EXPECT_GT(laplace_err.variance(), gaussian_err.variance());
}

TEST(HonakerCounterTest, RefinedVarianceBeatsPlainTree) {
  // Level-j refined variance must be strictly below the raw node variance
  // for every internal level.
  HonakerCounter c(64, 0.1, NoiseStream(0));
  double raw = c.LevelVariance(0);
  for (int j = 1; j < 6; ++j) {
    EXPECT_LT(c.LevelVariance(j), raw) << "level " << j;
  }
}

TEST(HonakerCounterTest, EmpiricallyTighterThanTree) {
  // With the same budget, Honaker's final-step error variance should not
  // exceed the plain tree's (it combines strictly more information).
  const int64_t kT = 32;
  const double kRho = 0.25;
  const int kTrials = 3000;
  util::MomentAccumulator tree_err, honaker_err;
  for (int trial = 0; trial < kTrials; ++trial) {
    const uint64_t id = static_cast<uint64_t>(trial);
    auto tree = MakeByName("tree", kT, kRho, NoiseStream(id));
    auto honaker =
        MakeByName("honaker", kT, kRho, NoiseStream(id + 100000));
    int64_t truth = 0;
    int64_t last_tree = 0, last_honaker = 0;
    for (int64_t t = 1; t <= 31; ++t) {  // t=31: 5 set bits, worst case
      truth += 3;
      last_tree = tree->Observe(3).value();
      last_honaker = honaker->Observe(3).value();
    }
    tree_err.Add(static_cast<double>(last_tree - truth));
    honaker_err.Add(static_cast<double>(last_honaker - truth));
  }
  EXPECT_LT(honaker_err.variance(), tree_err.variance());
}

TEST(InputPerturbationTest, ErrorGrowsWithTime) {
  InputPerturbationCounter c(1024, 0.5, NoiseStream(0));
  EXPECT_LT(c.ErrorBound(0.05, 1), c.ErrorBound(0.05, 1024));
}

TEST(RecomputeCounterTest, ErrorFlatInTime) {
  RecomputeCounter c(1024, 0.5, NoiseStream(0));
  EXPECT_DOUBLE_EQ(c.ErrorBound(0.05, 1), c.ErrorBound(0.05, 1024));
}

TEST(MatrixCounterTest, CoefficientsAreCentralBinomialRatios) {
  // f_k = binom(2k, k) / 4^k: 1, 1/2, 3/8, 5/16, 35/128.
  MatrixCounter c(8, 0.5, NoiseStream(0));
  EXPECT_DOUBLE_EQ(c.Coefficient(0), 1.0);
  EXPECT_DOUBLE_EQ(c.Coefficient(1), 0.5);
  EXPECT_DOUBLE_EQ(c.Coefficient(2), 3.0 / 8.0);
  EXPECT_DOUBLE_EQ(c.Coefficient(3), 5.0 / 16.0);
  EXPECT_DOUBLE_EQ(c.Coefficient(4), 35.0 / 128.0);
}

TEST(MatrixCounterTest, FactorizationReconstructsPrefixSums) {
  // M * M must equal the all-ones lower-triangular A: with zero noise the
  // released values are exact prefix sums (also covered by the contract
  // sweep; asserted here with a longer adversarial stream).
  MatrixCounter c(200, kInf, NoiseStream(0));
  util::SubstreamRng rng(71, util::substream::kGeneric);
  int64_t truth = 0;
  for (int64_t t = 1; t <= 200; ++t) {
    int64_t z = static_cast<int64_t>(rng.UniformInt(1000));
    truth += z;
    auto r = c.Observe(z);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value(), truth) << "t=" << t;
  }
}

TEST(MatrixCounterTest, SensitivityGrowsLogarithmically) {
  // Delta^2 = sum f_k^2 ~ ln(T)/pi + c; ratios between horizons follow.
  MatrixCounter small(16, 0.5, NoiseStream(0));
  MatrixCounter big(4096, 0.5, NoiseStream(1));
  EXPECT_GT(big.sensitivity2(), small.sensitivity2());
  EXPECT_LT(big.sensitivity2(), small.sensitivity2() + 2.0);  // ~ln(256)/pi
}

TEST(MatrixCounterTest, BeatsTreeConstantsAtModerateHorizons) {
  // The whole point of the factorization: smaller error at equal budget.
  const int64_t kT = 256;
  const double kRho = 0.25;
  const int kTrials = 1200;
  util::MomentAccumulator tree_err, matrix_err;
  for (int trial = 0; trial < kTrials; ++trial) {
    const uint64_t id = static_cast<uint64_t>(trial);
    auto tree = MakeByName("tree", kT, kRho, NoiseStream(id));
    auto matrix =
        MakeByName("sqrt-matrix", kT, kRho, NoiseStream(id + 100000));
    int64_t truth = 0;
    int64_t rt = 0, rm = 0;
    for (int64_t t = 1; t <= 255; ++t) {
      truth += 1;
      rt = tree->Observe(1).value();
      rm = matrix->Observe(1).value();
    }
    tree_err.Add(static_cast<double>(rt - truth));
    matrix_err.Add(static_cast<double>(rm - truth));
  }
  EXPECT_LT(matrix_err.variance(), tree_err.variance());
}

TEST(MatrixCounterTest, FactoryRejectsHugeHorizon) {
  auto f = MakeCounterFactory("sqrt-matrix").value();
  EXPECT_TRUE(f->Create(int64_t{1} << 16, 0.5, NoiseStream(0)).ok());
  EXPECT_TRUE(f->Create((int64_t{1} << 16) + 1, 0.5, NoiseStream(0))
                  .status()
                  .IsInvalidArgument());
}

TEST(CounterComparisonTest, TreeBeatsNaiveAtLongHorizons) {
  // The tree's final-step bound is asymptotically polylog(T) vs sqrt(T)
  // (input perturbation) and sqrt(T) calibration (recompute).
  const int64_t kT = 1024;
  const double kRho = 0.5, kBeta = 0.05;
  TreeCounter tree(kT, kRho, NoiseStream(0));
  InputPerturbationCounter ip(kT, kRho, NoiseStream(1));
  RecomputeCounter rc(kT, kRho, NoiseStream(2));
  EXPECT_LT(tree.ErrorBound(kBeta, kT), ip.ErrorBound(kBeta, kT));
  EXPECT_LT(tree.ErrorBound(kBeta, kT), rc.ErrorBound(kBeta, kT));
}

}  // namespace
}  // namespace stream
}  // namespace longdp
