// The recompute-from-scratch strawman the paper's introduction warns about.
//
// At every update step t = k..T it runs an independent single-shot noisy-
// histogram synthesis of the current width-k window with budget
// rho/(T-k+1) (so the whole run is rho-zCDP by composition, like Algorithm
// 1), materializing a *fresh* synthetic population each time. There is no
// padding, no consistency solve, and no record persistence: the synthetic
// individuals at time t+1 bear no relation to those at time t, so
// longitudinal statistics ("has ever experienced a 6-month spell") are not
// even well-defined across releases — the failure mode
// bench/baseline_recompute quantifies against Algorithm 1.

#ifndef LONGDP_CORE_RECOMPUTE_BASELINE_H_
#define LONGDP_CORE_RECOMPUTE_BASELINE_H_

#include <memory>
#include <vector>

#include "data/round_view.h"
#include "dp/accountant.h"
#include "dp/noise_sampler.h"
#include "util/bits.h"
#include "util/status.h"
#include "util/substream.h"

namespace longdp {
namespace core {

class RecomputeBaseline {
 public:
  struct Options {
    int64_t horizon = 0;
    int window_k = 0;
    double rho = 0.0;
    /// Root seed: round t's noise draws come from the keyed substream
    /// (seed, kHistogramNoise, t, bin, draw).
    uint64_t seed = 0;
  };

  static Result<std::unique_ptr<RecomputeBaseline>> Create(
      const Options& options);

  /// Consumes one round of original bits. From t = k on, each call produces
  /// a fresh synthetic histogram (noise keyed by Options::seed).
  Status ObserveRound(data::RoundView round);

  bool has_release() const { return !current_.empty(); }
  int64_t t() const { return t_; }

  /// The latest fresh synthetic histogram over width-k patterns (noisy
  /// counts clamped at zero — no padding, so clamping bias is intrinsic).
  const std::vector<int64_t>& CurrentHistogram() const { return current_; }

  /// Number of records in the latest fresh synthetic population.
  int64_t SyntheticPopulation() const;

  /// Count of clamped-to-zero bins so far (the baseline's consistency-free
  /// answer to negativity).
  int64_t clamped_bins() const { return clamped_; }

  const dp::ZCdpAccountant& accountant() const { return accountant_; }

 private:
  explicit RecomputeBaseline(const Options& options)
      : options_(options),
        accountant_(options.rho),
        noise_root_(options.seed, util::substream::kHistogramNoise) {}

  Options options_;
  dp::ZCdpAccountant accountant_;
  util::SubstreamRng noise_root_;
  int64_t n_ = -1;
  int64_t t_ = 0;
  double sigma2_ = 0.0;
  double rho_per_step_ = 0.0;
  // Batched per-bin noise; assigned in Create alongside sigma2_.
  dp::NoiseSampler noise_ = dp::NoiseSampler::Gaussian(0.0);
  int64_t clamped_ = 0;
  std::vector<util::Pattern> user_window_;
  std::vector<int64_t> current_;
};

}  // namespace core
}  // namespace longdp

#endif  // LONGDP_CORE_RECOMPUTE_BASELINE_H_
