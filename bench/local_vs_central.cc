// Ablation A7: local-model randomized response (RAPPOR-style, the paper's
// Section 1.1 related work) vs the central Algorithm 1, on the k = 1
// problem both can solve — tracking the monthly poverty rate.
//
// At matched privacy (the central run's rho converted to an (epsilon,
// delta) guarantee), the central model's error is independent of T while
// the local fresh-per-round error grows with T and with 1/sqrt(n); the
// memoized variant avoids the T-dependence only under the bounded-flips
// heuristic and answers nothing beyond the k = 1 mean.
//
// Flags: --reps=N (default 300) --rho=R --n=N
#include "bench_common.h"
#include "dp/mechanisms.h"
#include "local/randomized_response.h"

namespace longdp {
namespace bench {
namespace {

Status Run(const harness::Flags& flags, harness::BenchReport* report) {
  const int64_t reps = flags.Reps(300);
  const double rho = flags.GetDouble("rho", 0.005);
  LONGDP_ASSIGN_OR_RETURN(auto ds, MakeSippDataset(flags));
  const int64_t T = ds.rounds();
  const double delta = 1e-6;
  const double epsilon = dp::ZCdpToApproxDpEpsilon(rho, delta);

  report->set_description(
      "A7: local randomized response vs central Algorithm 1 (k = 1)");
  report->SetParam("n", ds.num_users());
  report->SetParam("T", T);
  report->SetParam("rho", rho);
  report->SetParam("epsilon", epsilon);
  report->SetParam("delta", delta);
  report->SetParam("reps", reps);

  std::cout << "== A7: local randomized response vs central Algorithm 1 "
               "(k = 1: monthly poverty rate) ==\n"
            << "n=" << ds.num_users() << " T=" << T << " rho=" << rho
            << " -> (eps=" << epsilon << ", delta=" << delta
            << ")-DP equivalent; reps=" << reps << "\n\n";

  // Truth at each month.
  std::vector<double> truth(static_cast<size_t>(T) + 1, 0.0);
  auto current = query::MakeAtLeastOnes(1, 1);
  for (int64_t t = 1; t <= T; ++t) {
    LONGDP_ASSIGN_OR_RETURN(truth[static_cast<size_t>(t)],
                            query::EvaluateOnDataset(*current, ds, t));
  }

  struct Arm {
    std::string label;
    std::vector<double> max_errors;
  };
  std::vector<Arm> arms = {
      {"central Alg.1 (debiased, k=1)", {}},
      {"local fresh-per-round", {}},
      {"local memoized (flip_bound=3)", {}},
  };
  for (auto& arm : arms) {
    arm.max_errors.assign(static_cast<size_t>(reps), 0.0);
  }

  LONGDP_RETURN_NOT_OK(harness::RunRepetitions(
      reps, kRunSeed + 700, [&](int64_t rep, uint64_t rep_seed) {
        // Central Algorithm 1 with k = 1.
        core::FixedWindowSynthesizer::Options copt;
        copt.horizon = T;
        copt.window_k = 1;
        copt.rho = rho;
        copt.seed = rep_seed;
        LONGDP_ASSIGN_OR_RETURN(auto central,
                                core::FixedWindowSynthesizer::Create(copt));
        // Local oracles at the matched epsilon.
        local::LocalFrequencyOracle::Options fresh_opt;
        fresh_opt.horizon = T;
        fresh_opt.epsilon = epsilon;
        fresh_opt.strategy = local::ReportStrategy::kFreshPerRound;
        LONGDP_ASSIGN_OR_RETURN(auto fresh,
                                local::LocalFrequencyOracle::Create(
                                    fresh_opt));
        local::LocalFrequencyOracle::Options memo_opt = fresh_opt;
        memo_opt.strategy = local::ReportStrategy::kMemoized;
        memo_opt.flip_bound = 3;
        LONGDP_ASSIGN_OR_RETURN(
            auto memo, local::LocalFrequencyOracle::Create(memo_opt));

        // The local oracles take a mutable SubstreamRng*; key a
        // per-repetition local stream off the repetition seed.
        util::SubstreamRng lrng(rep_seed, util::substream::kLocal);
        double central_max = 0.0, fresh_max = 0.0, memo_max = 0.0;
        for (int64_t t = 1; t <= T; ++t) {
          LONGDP_RETURN_NOT_OK(central->ObserveRound(ds.Round(t)));
          LONGDP_ASSIGN_OR_RETURN(double c,
                                  central->DebiasedAnswer(*current));
          LONGDP_ASSIGN_OR_RETURN(double f,
                                  fresh->ObserveRound(ds.Round(t), &lrng));
          LONGDP_ASSIGN_OR_RETURN(double m,
                                  memo->ObserveRound(ds.Round(t), &lrng));
          double tr = truth[static_cast<size_t>(t)];
          central_max = std::max(central_max, std::fabs(c - tr));
          fresh_max = std::max(fresh_max, std::fabs(f - tr));
          memo_max = std::max(memo_max, std::fabs(m - tr));
        }
        arms[0].max_errors[static_cast<size_t>(rep)] = central_max;
        arms[1].max_errors[static_cast<size_t>(rep)] = fresh_max;
        arms[2].max_errors[static_cast<size_t>(rep)] = memo_max;
        return Status::OK();
      }));

  harness::Table table({"model", "median_max_err", "q97.5_max_err"});
  auto& series = report->AddSeries("max_error");
  for (const auto& arm : arms) {
    auto s = harness::Summarize(arm.max_errors);
    LONGDP_RETURN_NOT_OK(table.AddRow({arm.label,
                                       harness::Table::Val(s.median, 5),
                                       harness::Table::Val(s.q975, 5)}));
    series.AddRow().Label("model", arm.label).Summary(s);
  }
  table.Print(std::cout);
  std::cout << "\nThe memoized variant is competitive on the k=1 mean (its "
               "reports are constant\nbetween flips) but supports no wider "
               "windows and no cumulative queries, and its\nguarantee rests "
               "on the bounded-flips heuristic — the gap the paper's "
               "central\nmodel closes.\n";
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
