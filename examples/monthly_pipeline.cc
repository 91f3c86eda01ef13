// Checkpointed monthly release pipeline: in production, the 12-month
// horizon is 12 separate batch jobs months apart. This example simulates
// that: each "job" loads the previous checkpoint, ingests one month of
// reports, publishes the release, saves the checkpoint, and EXITS (here:
// destroys the synthesizer object). Both algorithms run side by side; the
// invariants survive every restart. Checkpoints are binary, so every
// checkpoint file is opened with std::ios::binary.
//
//   $ ./build/examples/monthly_pipeline [--rho=0.01]

#include <cstdio>
#include <fstream>
#include <sstream>

#include "harness/flags.h"
#include "longdp.h"

namespace {

using namespace longdp;

// One month's batch job for Algorithm 1. Returns the debiased quarterly
// answer when a quarter completes.
Status RunWindowJob(const std::string& checkpoint_path, int64_t month,
                    data::RoundView reports, double rho, uint64_t seed) {
  std::unique_ptr<core::FixedWindowSynthesizer> synth;
  if (month == 1) {
    core::FixedWindowSynthesizer::Options opt;
    opt.horizon = 12;
    opt.window_k = 3;
    opt.rho = rho;
    opt.seed = seed;
    LONGDP_ASSIGN_OR_RETURN(synth,
                            core::FixedWindowSynthesizer::Create(opt));
  } else {
    std::ifstream in(checkpoint_path, std::ios::binary);
    if (!in) return Status::IOError("missing checkpoint " + checkpoint_path);
    LONGDP_ASSIGN_OR_RETURN(synth,
                            core::FixedWindowSynthesizer::LoadCheckpoint(in));
    if (synth->t() != month - 1) {
      return Status::FailedPrecondition("checkpoint is from month " +
                                        std::to_string(synth->t()));
    }
  }
  LONGDP_RETURN_NOT_OK(synth->ObserveRound(reports));
  if (month % 3 == 0) {
    auto pred = query::MakeAllOnes(3);
    LONGDP_ASSIGN_OR_RETURN(double answer, synth->DebiasedAnswer(*pred));
    std::printf("  [job %2lld] quarter complete: poverty all quarter = "
                "%.4f (budget spent %.6f)\n",
                static_cast<long long>(month), answer,
                synth->accountant().spent());
  }
  std::ofstream out(checkpoint_path, std::ios::binary);
  LONGDP_RETURN_NOT_OK(synth->SaveCheckpoint(out));
  return Status::OK();
}

// One month's batch job for Algorithm 2.
Status RunCumulativeJob(const std::string& checkpoint_path, int64_t month,
                        data::RoundView reports, double rho, uint64_t seed) {
  std::unique_ptr<core::CumulativeSynthesizer> synth;
  if (month == 1) {
    core::CumulativeSynthesizer::Options opt;
    opt.horizon = 12;
    opt.rho = rho;
    opt.seed = seed;
    LONGDP_ASSIGN_OR_RETURN(synth, core::CumulativeSynthesizer::Create(opt));
  } else {
    std::ifstream in(checkpoint_path, std::ios::binary);
    if (!in) return Status::IOError("missing checkpoint " + checkpoint_path);
    LONGDP_ASSIGN_OR_RETURN(synth,
                            core::CumulativeSynthesizer::LoadCheckpoint(in));
  }
  LONGDP_RETURN_NOT_OK(synth->ObserveRound(reports));
  if (month % 4 == 0) {
    LONGDP_ASSIGN_OR_RETURN(double answer, synth->Answer(3));
    std::printf("  [job %2lld] >=3 months so far = %.4f\n",
                static_cast<long long>(month), answer);
  }
  std::ofstream out(checkpoint_path, std::ios::binary);
  LONGDP_RETURN_NOT_OK(synth->SaveCheckpoint(out));
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = harness::Flags::Parse(argc, argv);
  const double rho = flags.GetDouble("rho", 0.01);
  const std::string window_ckpt = "/tmp/longdp_window.ckpt";
  const std::string cumulative_ckpt = "/tmp/longdp_cumulative.ckpt";

  data::SippOptions sipp;
  sipp.num_households = 8000;
  auto dataset = data::SimulateSipp(sipp, uint64_t{777}).value();

  std::printf("simulating 12 independent monthly batch jobs "
              "(checkpoint -> ingest -> release -> checkpoint)\n\n");
  // Seeds only matter for the month-1 job; every later job re-derives its
  // noise substreams from the checkpointed seed and the stored rounds.
  for (int64_t month = 1; month <= 12; ++month) {
    Status st = RunWindowJob(window_ckpt, month, dataset.Round(month),
                             rho / 2, /*seed=*/888);
    if (st.ok()) {
      st = RunCumulativeJob(cumulative_ckpt, month, dataset.Round(month),
                            rho / 2, /*seed=*/889);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "month %lld failed: %s\n",
                   static_cast<long long>(month), st.ToString().c_str());
      return 1;
    }
  }

  // Final verification against ground truth.
  std::ifstream in(window_ckpt, std::ios::binary);
  auto final_synth =
      core::FixedWindowSynthesizer::LoadCheckpoint(in).value();
  auto pred = query::MakeAllOnes(3);
  double truth = query::EvaluateOnDataset(*pred, dataset, 12).value();
  double estimate = final_synth->DebiasedAnswer(*pred).value();
  std::printf("\nfinal state after 12 restarts: t=%lld, estimate %.4f vs "
              "truth %.4f, rho spent %.6f\n",
              static_cast<long long>(final_synth->t()), estimate, truth,
              final_synth->accountant().spent());
  std::remove(window_ckpt.c_str());
  std::remove(cumulative_ckpt.c_str());
  return 0;
}
