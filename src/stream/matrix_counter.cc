#include "stream/matrix_counter.h"

#include <cmath>


namespace longdp {
namespace stream {

MatrixCounter::MatrixCounter(int64_t horizon, double rho,
                             const util::SubstreamRng& stream)
    : horizon_(horizon), rho_(rho), stream_(stream.Leaf(0)) {
  f_.resize(static_cast<size_t>(horizon));
  prefix_f2_.resize(static_cast<size_t>(horizon));
  f_[0] = 1.0;
  for (int64_t k = 1; k < horizon; ++k) {
    f_[static_cast<size_t>(k)] =
        f_[static_cast<size_t>(k - 1)] *
        (2.0 * static_cast<double>(k) - 1.0) / (2.0 * static_cast<double>(k));
  }
  double acc = 0.0;
  for (int64_t k = 0; k < horizon; ++k) {
    acc += f_[static_cast<size_t>(k)] * f_[static_cast<size_t>(k)];
    prefix_f2_[static_cast<size_t>(k)] = acc;
  }
  delta2_ = acc;
  sigma2_ = std::isinf(rho) ? 0.0 : delta2_ / (2.0 * rho);
  noise_ = dp::NoiseSampler::Gaussian(sigma2_);
  x_.reserve(static_cast<size_t>(horizon));
  noisy_u_.reserve(static_cast<size_t>(horizon));
}

Result<int64_t> MatrixCounter::Observe(int64_t z) {
  if (t_ >= horizon_) {
    return Status::OutOfRange("matrix counter past its horizon T=" +
                              std::to_string(horizon_));
  }
  x_.push_back(z);
  ++t_;
  // u_t = (M x)_t = sum_{j=1..t} f_{t-j} x_j.
  double u = 0.0;
  for (int64_t j = 0; j < t_; ++j) {
    u += f_[static_cast<size_t>(t_ - 1 - j)] *
         static_cast<double>(x_[static_cast<size_t>(j)]);
  }
  // Discrete noise keeps the released reconstruction integer-friendly and
  // matches the rest of the library's integer-noise policy.
  double noise = static_cast<double>(noise_.Draw(&stream_));
  noisy_u_.push_back(u + noise);
  // Stilde_t = (M (u + z))_t.
  double s = 0.0;
  for (int64_t j = 0; j < t_; ++j) {
    s += f_[static_cast<size_t>(t_ - 1 - j)] *
         noisy_u_[static_cast<size_t>(j)];
  }
  return static_cast<int64_t>(std::llround(s));
}

double MatrixCounter::ErrorBound(double beta, int64_t t) const {
  if (sigma2_ == 0.0) return 0.0;
  if (t < 1) t = 1;
  if (t > horizon_) t = horizon_;
  if (beta <= 0.0) beta = 1e-12;
  // (M z)_t is a weighted sum of t independent discrete Gaussians with
  // variance sigma^2 * sum_{k<t} f_k^2; +0.5 for the final rounding.
  double var = sigma2_ * prefix_f2_[static_cast<size_t>(t - 1)];
  return std::sqrt(2.0 * var * std::log(2.0 / beta)) + 0.5;
}

}  // namespace stream
}  // namespace longdp
