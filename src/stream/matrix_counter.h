// Square-root matrix-factorization stream counter — the improved-constant
// continual counter of Fichtenberger, Henzinger & Upadhyay '22 and
// Henzinger, Upadhyay & Upadhyay '23, which the paper's Section 1.1 cites
// as a drop-in replacement for the binary tree inside Algorithm 2.
//
// The prefix-sum operator A (lower-triangular all-ones) factors as
// A = M * M where M is lower-triangular Toeplitz with the Taylor
// coefficients of (1 - x)^{-1/2}:
//
//   f_0 = 1,   f_k = f_{k-1} * (2k - 1) / (2k)  ( = binom(2k,k) / 4^k ).
//
// Mechanism: maintain u = M x streamed, perturb each u_t once with
// discrete Gaussian noise z_t, and release Stilde_t = sum_j f_{t-j}(u_j +
// z_j) = (A x)_t + (M z)_t. One user changes one stream entry x_j by 1,
// which moves u by M's j-th column, of squared L2 norm
// Delta^2 = sum_{k<T} f_k^2 ~ ln(T)/pi + O(1) — so sigma^2 =
// Delta^2/(2 rho) gives rho-zCDP, and the released error std at step t is
// sigma * sqrt(sum_{k<=t} f_k^2) ~ ln(T)/pi / sqrt(2 rho): better
// constants than the tree's sqrt(log^2 T) at every horizon.
//
// Cost: O(t) per step (the Toeplitz convolution), O(T^2) per stream —
// perfectly fine for the T <= a few thousand regime of longitudinal
// surveys; use the tree for very long horizons.

#ifndef LONGDP_STREAM_MATRIX_COUNTER_H_
#define LONGDP_STREAM_MATRIX_COUNTER_H_

#include <vector>

#include "dp/noise_sampler.h"
#include "stream/stream_counter.h"

namespace longdp {
namespace stream {

class MatrixCounter : public StreamCounter {
 public:
  MatrixCounter(int64_t horizon, double rho,
                const util::SubstreamRng& stream);

  Result<int64_t> Observe(int64_t z) override;
  int64_t steps() const override { return t_; }
  int64_t horizon() const override { return horizon_; }
  double rho() const override { return rho_; }
  double ErrorBound(double beta, int64_t t) const override;
  std::string name() const override { return "sqrt-matrix"; }

  /// Squared sensitivity Delta^2 = sum_{k<T} f_k^2.
  double sensitivity2() const { return delta2_; }
  /// Per-entry noise variance sigma^2 = Delta^2 / (2 rho).
  double sigma2() const { return sigma2_; }
  /// The factorization coefficient f_k.
  double Coefficient(int64_t k) const {
    return f_[static_cast<size_t>(k)];
  }

 private:
  int64_t horizon_;
  double rho_;
  double delta2_;
  double sigma2_;
  // Batched sampler for sigma2_; assigned in the constructor body because
  // sigma2_ itself is computed there (after the coefficient table).
  dp::NoiseSampler noise_ = dp::NoiseSampler::Gaussian(0.0);
  int64_t t_ = 0;
  std::vector<double> f_;        ///< f_0 .. f_{T-1}
  std::vector<double> prefix_f2_;  ///< sum_{k<=j} f_k^2
  std::vector<int64_t> x_;       ///< raw stream (needed for u_t = (Mx)_t)
  std::vector<double> noisy_u_;  ///< u_j + z_j for j <= t
  util::SubstreamRng stream_;    ///< one draw per step (no level structure)
};

}  // namespace stream
}  // namespace longdp

#endif  // LONGDP_STREAM_MATRIX_COUNTER_H_
