// Categorical extension of Algorithm 1: monthly employment *status* with
// three categories (employed / unemployed / out of labor force), window
// k = 2 — the "more than 2 categories" generalization the paper notes.
//
//   $ ./build/examples/categorical_employment [--rho=0.01]

#include <cstdio>
#include <vector>

#include "harness/flags.h"
#include "longdp.h"

namespace {

// Simple 3-state monthly transition chain.
constexpr int kEmployed = 0, kUnemployed = 1, kOutOfLf = 2;

std::vector<std::vector<uint8_t>> SimulatePanel(
    int64_t n, int64_t horizon, longdp::util::SubstreamRng* rng) {
  // Transition matrix rows (from-state): to employed/unemployed/out.
  const double P[3][3] = {
      {0.96, 0.02, 0.02},  // employed is sticky
      {0.25, 0.65, 0.10},  // unemployed resolves or discourages
      {0.05, 0.03, 0.92},  // out of labor force is sticky
  };
  std::vector<uint8_t> state(static_cast<size_t>(n));
  for (auto& s : state) {
    double u = rng->UniformDouble();
    s = u < 0.62 ? kEmployed : (u < 0.68 ? kUnemployed : kOutOfLf);
  }
  std::vector<std::vector<uint8_t>> rounds;
  for (int64_t t = 0; t < horizon; ++t) {
    if (t > 0) {
      for (auto& s : state) {
        double u = rng->UniformDouble();
        const double* row = P[s];
        s = u < row[0] ? kEmployed
                       : (u < row[0] + row[1] ? kUnemployed : kOutOfLf);
      }
    }
    rounds.push_back(state);
  }
  return rounds;
}

const char* StateName(int s) {
  switch (s) {
    case kEmployed:
      return "E";
    case kUnemployed:
      return "U";
    default:
      return "O";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace longdp;
  auto flags = harness::Flags::Parse(argc, argv);
  const double rho = flags.GetDouble("rho", 0.01);
  const int64_t kN = 20000, kT = 12;
  const int kK = 2, kA = 3;

  util::SubstreamRng rng(9, util::substream::kDataset);
  auto rounds = SimulatePanel(kN, kT, &rng);

  core::CategoricalWindowSynthesizer::Options options;
  options.horizon = kT;
  options.window_k = kK;
  options.alphabet = kA;
  options.rho = rho;
  options.seed = 11;
  auto synth = core::CategoricalWindowSynthesizer::Create(options).value();
  std::printf("%lld workers x %lld months, alphabet {E,U,O}, k=%d, "
              "rho=%g, npad=%lld\n\n",
              static_cast<long long>(kN), static_cast<long long>(kT), kK,
              rho, static_cast<long long>(synth->npad()));

  for (int64_t t = 0; t < kT; ++t) {
    Status st = synth->ObserveRound(rounds[static_cast<size_t>(t)]);
    if (!st.ok()) {
      std::fprintf(stderr, "release failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  // Month-over-month transition shares from the final window release:
  // the 9 two-month patterns, debiased, vs ground truth.
  std::printf("two-month pattern shares at t=%lld (prev -> current):\n",
              static_cast<long long>(kT));
  std::printf("%-10s %-10s %-10s\n", "pattern", "truth", "DP debiased");
  std::vector<int64_t> truth(9, 0);
  for (int64_t i = 0; i < kN; ++i) {
    int prev = rounds[static_cast<size_t>(kT - 2)][static_cast<size_t>(i)];
    int cur = rounds[static_cast<size_t>(kT - 1)][static_cast<size_t>(i)];
    ++truth[static_cast<size_t>(prev * 3 + cur)];
  }
  for (uint64_t s = 0; s < 9; ++s) {
    double truth_frac =
        static_cast<double>(truth[s]) / static_cast<double>(kN);
    double estimate = synth->DebiasedBinFraction(s).value();
    std::printf("%s->%-7s %-10.4f %-10.4f\n",
                StateName(static_cast<int>(s / 3)),
                StateName(static_cast<int>(s % 3)), truth_frac, estimate);
  }
  std::printf("\nnegative clamps: %lld, remainder draws: %lld, zCDP spent: "
              "%.6f\n",
              static_cast<long long>(synth->stats().negative_clamps),
              static_cast<long long>(synth->stats().rounding_draws),
              synth->accountant().spent());
  return 0;
}
