// Samplers for the discrete Gaussian N_Z(0, sigma^2) and its building
// blocks, following Canonne, Kamath & Steinke, "The Discrete Gaussian for
// Differential Privacy" (NeurIPS 2020).
//
// The sampling chain is
//
//   Bernoulli(exp(-gamma))  ->  discrete Laplace(scale s)  ->  rejection
//   -> discrete Gaussian(sigma^2),
//
// with no evaluation of transcendental CDFs and no inverse-transform
// sampling, so the output distribution's tails are faithful for any sigma.
// Parameters are doubles (per-call probabilities are formed as exact ratios
// of small quantities); a production deployment concerned about
// floating-point side channels would swap in rational arithmetic, which this
// API deliberately keeps behind one function boundary.
//
// These one-shot functions are the reference implementation, not the
// production path: no library code calls them. Every noise draw in a
// release comes from dp::NoiseSampler (dp/noise_sampler.h), which runs the
// same chain batched and is pinned against these functions word for word
// by dp_noise_sampler_test. All samplers take an explicit util::Rng for
// reproducibility.

#ifndef LONGDP_DP_DISCRETE_GAUSSIAN_H_
#define LONGDP_DP_DISCRETE_GAUSSIAN_H_

#include <cstdint>

#include "util/rng.h"
#include "util/status.h"

namespace longdp {
namespace dp {

/// Samples Bernoulli(exp(-gamma)) exactly (up to double rounding) for any
/// gamma >= 0, via the alternating-series acceptance loop of CKS'20 Alg. 1.
/// gamma < 0 is treated as 0 (always returns true).
bool SampleBernoulliExpNeg(double gamma, util::Rng* rng);

/// Samples the discrete Laplace distribution with scale s > 0:
///   Pr[X = x] proportional to exp(-|x| / s),  x in Z.
/// CKS'20 Alg. 2 structure: uniform offset + geometric tail + sign, with the
/// double-counted zero rejected.
///
/// Degenerate scales are guarded in every build mode: any s that is not
/// strictly positive (zero, negative, or NaN) returns 0 deterministically
/// without consuming a draw. Before this guard a negative s underflowed the
/// offset bound computation (undefined negative-double-to-uint64 cast).
int64_t SampleDiscreteLaplace(double s, util::Rng* rng);

/// Samples the discrete Gaussian N_Z(0, sigma2):
///   Pr[X = x] proportional to exp(-x^2 / (2 sigma2)),  x in Z.
/// Rejection from discrete Laplace (CKS'20 Alg. 3).
///
/// Degenerate variances are guarded in every build mode (not just debug):
/// any sigma2 that is not strictly positive (zero, negative, or NaN)
/// returns 0 deterministically without consuming a draw. sigma2 == 0 is the
/// documented zero-noise path; negative/NaN indicate a caller bug upstream
/// (e.g. a corrupted budget) and degrade to the same harmless zero rather
/// than debug-abort/release-UB. Pinned by dp_edge_case regression tests.
int64_t SampleDiscreteGaussian(double sigma2, util::Rng* rng);

/// Exact probability mass Pr[X = x] for X ~ N_Z(0, sigma2). Computed by
/// direct series normalization; used only by tests (goodness-of-fit).
double DiscreteGaussianPmf(int64_t x, double sigma2);

/// Upper tail bound Pr[X >= lambda] <= exp(-lambda^2 / (2 sigma2)) for
/// X ~ N_Z(0, sigma2) (subgaussian; CKS'20 Prop. 25 gives this bound).
double DiscreteGaussianTailBound(double lambda, double sigma2);

}  // namespace dp
}  // namespace longdp

#endif  // LONGDP_DP_DISCRETE_GAUSSIAN_H_
