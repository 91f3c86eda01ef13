#include "stream/naive_counters.h"

#include <cmath>


namespace longdp {
namespace stream {

namespace {
Status ValidateCounterArgs(int64_t horizon, double rho) {
  if (horizon < 1) {
    return Status::InvalidArgument("stream horizon must be >= 1, got " +
                                   std::to_string(horizon));
  }
  if (!(rho > 0.0)) {
    return Status::InvalidArgument("stream counter rho must be > 0");
  }
  return Status::OK();
}
}  // namespace

InputPerturbationCounter::InputPerturbationCounter(
    int64_t horizon, double rho, const util::SubstreamRng& stream)
    : horizon_(horizon),
      rho_(rho),
      sigma2_(std::isinf(rho) ? 0.0 : 1.0 / (2.0 * rho)),
      noise_(dp::NoiseSampler::Gaussian(sigma2_)),
      stream_(stream.Leaf(0)) {}

Result<int64_t> InputPerturbationCounter::Observe(int64_t z) {
  if (t_ >= horizon_) {
    return Status::OutOfRange("counter past its horizon");
  }
  ++t_;
  noisy_sum_ += z + noise_.Draw(&stream_);
  return noisy_sum_;
}

double InputPerturbationCounter::ErrorBound(double beta, int64_t t) const {
  if (sigma2_ == 0.0) return 0.0;
  if (t < 1) t = 1;
  if (beta <= 0.0) beta = 1e-12;
  double var = static_cast<double>(t) * sigma2_;
  return std::sqrt(2.0 * var * std::log(2.0 / beta));
}

RecomputeCounter::RecomputeCounter(int64_t horizon, double rho,
                                   const util::SubstreamRng& stream)
    : horizon_(horizon),
      rho_(rho),
      sigma2_(std::isinf(rho) ? 0.0
                              : static_cast<double>(horizon) / (2.0 * rho)),
      noise_(dp::NoiseSampler::Gaussian(sigma2_)),
      stream_(stream.Leaf(0)) {}

Result<int64_t> RecomputeCounter::Observe(int64_t z) {
  if (t_ >= horizon_) {
    return Status::OutOfRange("counter past its horizon");
  }
  ++t_;
  true_sum_ += z;
  return true_sum_ + noise_.Draw(&stream_);
}

double RecomputeCounter::ErrorBound(double beta, int64_t t) const {
  (void)t;
  if (sigma2_ == 0.0) return 0.0;
  if (beta <= 0.0) beta = 1e-12;
  return std::sqrt(2.0 * sigma2_ * std::log(2.0 / beta));
}

Result<std::unique_ptr<StreamCounter>> InputPerturbationCounterFactory::Create(
    int64_t horizon, double rho, const util::SubstreamRng& stream) const {
  LONGDP_RETURN_NOT_OK(ValidateCounterArgs(horizon, rho));
  return std::unique_ptr<StreamCounter>(
      new InputPerturbationCounter(horizon, rho, stream));
}

Result<std::unique_ptr<StreamCounter>> RecomputeCounterFactory::Create(
    int64_t horizon, double rho, const util::SubstreamRng& stream) const {
  LONGDP_RETURN_NOT_OK(ValidateCounterArgs(horizon, rho));
  return std::unique_ptr<StreamCounter>(
      new RecomputeCounter(horizon, rho, stream));
}

}  // namespace stream
}  // namespace longdp
