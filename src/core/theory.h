// Closed-form quantities from the paper's analysis, used for calibration
// (n_pad), for the dashed theoretical-bound lines in Figures 3-4, and by the
// theory benches that compare measured error against the proofs.

#ifndef LONGDP_CORE_THEORY_H_
#define LONGDP_CORE_THEORY_H_

#include <cstdint>

#include "util/status.h"

namespace longdp {
namespace core {
namespace theory {

/// Per-update-step noise variance of Algorithm 1 (Section 3.1):
///   sigma^2 = (T - k + 1) / (2 rho).
Result<double> FixedWindowSigma2(int64_t horizon, int window_k, double rho);

/// The paper's recommended padding (Section 3.1) for a histogram of `bins`
/// bins (2^k for Algorithm 1, A^k for its categorical extension):
///   n_pad = ( sqrt((T-k+1)/rho) + 1/sqrt(2) )
///           * sqrt( log(bins (T-k+1)/beta) ),
/// which by Theorem 3.2 keeps every noisy count non-negative with
/// probability >= 1 - beta over the whole run. Returned rounded up.
Result<int64_t> RecommendedNpad(int64_t horizon, int window_k, double rho,
                                double beta, uint64_t bins);

/// Theorem 3.2: with probability >= 1 - beta,
///   max_{s,t} | p^t_s - (C^t_s + n_pad) |
///     <= ( sqrt((T-k+1)/rho) + 1/sqrt(2) ) * sqrt( log(2^k (T-k+1)/beta) ).
Result<double> MaxBinCountErrorBound(int64_t horizon, int window_k, double rho,
                                     double beta);

/// Corollary 3.3 (debiased form): the maximum error of debiased proportions,
/// MaxBinCountErrorBound / n.
Result<double> DebiasedFractionErrorBound(int64_t horizon, int window_k,
                                          double rho, double beta, int64_t n);

/// Corollary 3.3 (biased form): upper bound on |p^t_s/n* - C^t_s/n| given a
/// worst-case bin fraction `bin_fraction` = C^t_s / n, using
/// n <= n* <= n + 2^{k+1} lambda:  2 lambda / n + 2^{k+1} lambda/n * frac.
Result<double> BiasedFractionErrorBound(int64_t horizon, int window_k,
                                        double rho, double beta, int64_t n,
                                        double bin_fraction);

/// Corollary B.1: Algorithm 2 with tree counters and the cubic-log budget
/// split is (alpha*, T beta)-accurate with
///   alpha* = (1/n) sqrt( (sum_b L_b^3) / rho * log(1/beta) ),
///   L_b = max(ceil(log2(T - b + 1)), 1).
Result<double> CumulativeFractionErrorBound(int64_t horizon, double rho,
                                            double beta, int64_t n);

/// The sqrt(T)-composition error floor of the recompute-from-scratch
/// baseline (Section 1 strawman): each of the R = T - k + 1 re-syntheses
/// gets rho/R, so per-release bin-count noise stdev is
/// sqrt(R/(2 rho)) — identical in order to Algorithm 1's, but with no
/// record persistence (the point of bench/baseline_recompute).
Result<double> RecomputePerStepSigma(int64_t horizon, int window_k,
                                     double rho);

/// Upper limit on the synthetic cohort a window synthesizer seeds from its
/// clamped initial census: the true counts sum to n, and each of the `bins`
/// padded noisy counts adds n_pad plus a noise draw that exceeds
/// ceil(40 sigma) with probability below e^-800. So
///   m <= min(n + bins * (n_pad + ceil(40 sigma)), state_io::kMaxRecords).
/// Checkpoint loaders check a stored census against it before rebuilding
/// any record; SaveCheckpoint refuses a cohort past it.
int64_t MaxSyntheticRecords(int64_t n, uint64_t bins, int64_t npad,
                            double sigma2);

}  // namespace theory
}  // namespace core
}  // namespace longdp

#endif  // LONGDP_CORE_THEORY_H_
