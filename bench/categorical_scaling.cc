// Ablation A8: the categorical extension of Algorithm 1 — error and cost
// as the alphabet size A grows (the paper claims the fixed-window solution
// "naturally extends" to A > 2; this bench quantifies the A^k price).
//
// Flags: --reps=N (default 100) --rho=R --n=N
#include <chrono>

#include "bench_common.h"
#include "core/categorical_synthesizer.h"

namespace longdp {
namespace bench {
namespace {

Status Run(const harness::Flags& flags, harness::BenchReport* report) {
  const int64_t reps = flags.Reps(100);
  const double rho = flags.GetDouble("rho", 0.01);
  const int64_t n = flags.GetInt("n", 20000);
  const int64_t T = 12;
  const int k = 2;

  report->set_description(
      "A8: categorical window synthesis, alphabet sweep");
  report->SetParam("n", n);
  report->SetParam("T", T);
  report->SetParam("k", k);
  report->SetParam("rho", rho);
  report->SetParam("reps", reps);

  std::cout << "== A8: categorical window synthesis, alphabet sweep ==\n"
            << "n=" << n << " T=" << T << " k=" << k << " rho=" << rho
            << " reps=" << reps << "\n\n";

  harness::Table table({"A", "bins(A^k)", "npad", "mean|bin err|(debiased)",
                        "q97.5|bin err|", "ms/run"});
  auto& series = report->AddSeries("alphabet_sweep");
  harness::BenchReport::PhaseTimer timer(report, "sweep");
  for (int alphabet : {2, 3, 4, 6, 8}) {
    // Stationary categorical rounds (uniform over the alphabet).
    util::SubstreamRng data_rng(kDatasetSeed + static_cast<uint64_t>(alphabet),
                                util::substream::kDataset);
    std::vector<std::vector<uint8_t>> rounds;
    {
      std::vector<uint8_t> state(static_cast<size_t>(n));
      for (auto& s : state) {
        s = static_cast<uint8_t>(
            data_rng.UniformInt(static_cast<uint64_t>(alphabet)));
      }
      for (int64_t t = 0; t < T; ++t) {
        // Sticky chain: 85% stay, 15% resample uniformly.
        if (t > 0) {
          for (auto& s : state) {
            if (data_rng.Bernoulli(0.15)) {
              s = static_cast<uint8_t>(
                  data_rng.UniformInt(static_cast<uint64_t>(alphabet)));
            }
          }
        }
        rounds.push_back(state);
      }
    }
    // True final histogram.
    uint64_t bins =
        core::SyntheticCohort::NumBins(k, alphabet).value();
    std::vector<int64_t> truth(bins, 0);
    for (int64_t i = 0; i < n; ++i) {
      uint64_t code = 0;
      for (int64_t tt = T - k; tt < T; ++tt) {
        code = code * static_cast<uint64_t>(alphabet) +
               rounds[static_cast<size_t>(tt)][static_cast<size_t>(i)];
      }
      ++truth[code];
    }

    std::vector<double> errors(static_cast<size_t>(reps), 0.0);
    int64_t npad_used = 0;
    auto start = std::chrono::steady_clock::now();
    LONGDP_RETURN_NOT_OK(harness::RunRepetitions(
        reps, kRunSeed + 800, [&](int64_t rep, uint64_t rep_seed) {
          core::CategoricalWindowSynthesizer::Options opt;
          opt.horizon = T;
          opt.window_k = k;
          opt.alphabet = alphabet;
          opt.rho = rho;
          opt.seed = rep_seed;
          LONGDP_ASSIGN_OR_RETURN(
              auto synth, core::CategoricalWindowSynthesizer::Create(opt));
          npad_used = synth->npad();
          for (int64_t t = 0; t < T; ++t) {
            LONGDP_RETURN_NOT_OK(
                synth->ObserveRound(rounds[static_cast<size_t>(t)]));
          }
          double max_err = 0.0;
          for (uint64_t s = 0; s < bins; ++s) {
            LONGDP_ASSIGN_OR_RETURN(double est,
                                    synth->DebiasedBinFraction(s));
            double tr =
                static_cast<double>(truth[s]) / static_cast<double>(n);
            max_err = std::max(max_err, std::fabs(est - tr));
          }
          errors[static_cast<size_t>(rep)] = max_err;
          return Status::OK();
        }));
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    auto s = harness::Summarize(errors);
    double ms_per_run =
        static_cast<double>(elapsed) / static_cast<double>(reps);
    LONGDP_RETURN_NOT_OK(table.AddRow(
        {std::to_string(alphabet), std::to_string(bins),
         std::to_string(npad_used), harness::Table::Val(s.mean, 5),
         harness::Table::Val(s.q975, 5),
         harness::Table::Val(ms_per_run, 2)}));
    series.AddRow()
        .Label("A", std::to_string(alphabet))
        .Value("bins", static_cast<double>(bins))
        .Value("npad", static_cast<double>(npad_used))
        .Value("ms_per_run", ms_per_run)
        .Summary(s);
  }
  timer.Stop();
  table.Print(std::cout);
  std::cout << "\nPer-bin error grows only with log(A^k) (the union bound); "
               "the padding mass\nand runtime grow with A^k — the practical "
               "ceiling on the categorical extension.\n";
  return Status::OK();
}

}  // namespace
}  // namespace bench
}  // namespace longdp

int main(int argc, char** argv) {
  auto flags = longdp::harness::Flags::Parse(argc, argv);
  auto report = longdp::bench::MakeReport(flags);
  auto st = longdp::bench::Run(flags, &report);
  return longdp::bench::FinishAndExit(flags, report, std::move(st));
}
