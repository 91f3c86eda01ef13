// Ablation A5: padding sweep. n_pad trades off failure probability
// (negative counts that must be clamped, breaking the synthetic-data
// guarantee) against bias on the raw synthetic answers. The paper's
// recommended n_pad (Theorem 3.2) should show ~zero clamps; fractions of it
// should start failing.
//
// Flags: --reps=N (default 200) --rho=R --n=N
#include "bench_common.h"

namespace longdp {
namespace bench {
namespace {

Status Run(const harness::Flags& flags, harness::BenchReport* report) {
  const int64_t reps = flags.Reps(200);
  const double rho = flags.GetDouble("rho", 0.005);
  const int64_t n = flags.GetInt("n", 25000);
  const int64_t T = 12;
  const int k = 3;
  LONGDP_ASSIGN_OR_RETURN(auto ds, data::ExtremeAllZeros(n, T));
  LONGDP_ASSIGN_OR_RETURN(
      int64_t recommended,
      core::theory::RecommendedNpad(T, k, rho, 0.05, util::NumPatterns(k)));

  report->set_description("A5: padding sweep on all-zeros data");
  report->SetParam("n", n);
  report->SetParam("T", T);
  report->SetParam("k", k);
  report->SetParam("rho", rho);
  report->SetParam("reps", reps);
  report->SetParam("recommended_npad", recommended);

  std::cout << "== A5: padding sweep (all-zeros data: 7 of 8 bins at true "
               "count 0, the hardest case for negativity) ==\n"
            << "n=" << n << " T=" << T << " k=" << k << " rho=" << rho
            << " reps=" << reps << " recommended npad=" << recommended
            << "\n\n";

  harness::Table table({"npad", "runs_with_clamps", "mean_clamps/run",
                        "biased_err(all3)", "debiased_err(all3)"});
  auto& series = report->AddSeries("padding_sweep");
  harness::BenchReport::PhaseTimer timer(report, "sweep");
  std::vector<int64_t> npads = {0, recommended / 4, recommended / 2,
                                recommended, recommended * 2};
  auto pred = query::MakeAllOnes(3);
  double truth = 0.0;  // all-zeros data: nobody in poverty all quarter
  for (int64_t npad : npads) {
    std::vector<double> clamps(static_cast<size_t>(reps), 0.0);
    std::vector<double> biased_err(static_cast<size_t>(reps), 0.0);
    std::vector<double> debiased_err(static_cast<size_t>(reps), 0.0);
    LONGDP_RETURN_NOT_OK(harness::RunRepetitions(
        reps, kRunSeed + 500, [&](int64_t rep, uint64_t rep_seed) {
          core::FixedWindowSynthesizer::Options opt;
          opt.horizon = T;
          opt.window_k = k;
          opt.rho = rho;
          opt.npad = npad;
          opt.seed = rep_seed;
          LONGDP_ASSIGN_OR_RETURN(
              auto synth, core::FixedWindowSynthesizer::Create(opt));
          for (int64_t t = 1; t <= T; ++t) {
            LONGDP_RETURN_NOT_OK(synth->ObserveRound(ds.Round(t)));
          }
          clamps[static_cast<size_t>(rep)] =
              static_cast<double>(synth->stats().negative_clamps);
          LONGDP_ASSIGN_OR_RETURN(double b, synth->BiasedAnswer(*pred));
          LONGDP_ASSIGN_OR_RETURN(double d, synth->DebiasedAnswer(*pred));
          biased_err[static_cast<size_t>(rep)] = std::fabs(b - truth);
          debiased_err[static_cast<size_t>(rep)] = std::fabs(d - truth);
          return Status::OK();
        }));
    int64_t runs_with_clamps = 0;
    for (double c : clamps) {
      if (c > 0) ++runs_with_clamps;
    }
    double mean_clamps = harness::Summarize(clamps).mean;
    double mean_biased = harness::Summarize(biased_err).mean;
    double mean_debiased = harness::Summarize(debiased_err).mean;
    LONGDP_RETURN_NOT_OK(table.AddRow(
        {std::to_string(npad), std::to_string(runs_with_clamps),
         harness::Table::Val(mean_clamps, 2),
         harness::Table::Val(mean_biased, 5),
         harness::Table::Val(mean_debiased, 5)}));
    series.AddRow()
        .Label("npad", std::to_string(npad))
        .Value("runs_with_clamps", static_cast<double>(runs_with_clamps))
        .Value("mean_clamps_per_run", mean_clamps)
        .Value("biased_err_all3", mean_biased)
        .Value("debiased_err_all3", mean_debiased);
  }
  timer.Stop();
  table.Print(std::cout);
  std::cout << "\nDebiasing removes the padding bias regardless of npad; "
               "small npad trades\nbias for clamp failures that break the "
               "per-bin guarantee.\n";
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
