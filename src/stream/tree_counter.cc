#include "stream/tree_counter.h"

#include <cmath>

#include "util/bits.h"
#include "util/mathutil.h"

namespace longdp {
namespace stream {

TreeCounter::TreeCounter(int64_t horizon, double rho,
                         const util::SubstreamRng& stream)
    : horizon_(horizon),
      rho_(rho),
      levels_(util::FloorLog2(static_cast<uint64_t>(horizon)) + 1),
      sigma2_(std::isinf(rho) ? 0.0
                              : static_cast<double>(levels_) / (2.0 * rho)),
      noise_(dp::NoiseSampler::Gaussian(sigma2_)),
      alpha_(static_cast<size_t>(levels_), 0),
      alpha_noisy_(static_cast<size_t>(levels_), 0) {
  level_streams_.reserve(static_cast<size_t>(levels_));
  for (int j = 0; j < levels_; ++j) {
    level_streams_.push_back(stream.Leaf(static_cast<uint64_t>(j)));
  }
}

Result<int64_t> TreeCounter::Observe(int64_t z) {
  if (t_ >= horizon_) {
    return Status::OutOfRange("tree counter past its horizon T=" +
                              std::to_string(horizon_));
  }
  return Step(z);
}

double TreeCounter::ErrorBound(double beta, int64_t t) const {
  if (sigma2_ == 0.0) return 0.0;
  if (t < 1) t = 1;
  if (beta <= 0.0) beta = 1e-12;
  // S~_t - S_t is a sum of popcount(t) independent discrete Gaussians, each
  // subgaussian with parameter sigma^2; two-sided tail bound.
  int m = util::Popcount(static_cast<uint64_t>(t));
  double var = static_cast<double>(m) * sigma2_;
  return std::sqrt(2.0 * var * std::log(2.0 / beta));
}

Result<std::unique_ptr<StreamCounter>> TreeCounterFactory::Create(
    int64_t horizon, double rho, const util::SubstreamRng& stream) const {
  if (horizon < 1) {
    return Status::InvalidArgument("stream horizon must be >= 1, got " +
                                   std::to_string(horizon));
  }
  if (!(rho > 0.0)) {
    return Status::InvalidArgument("stream counter rho must be > 0");
  }
  return std::unique_ptr<StreamCounter>(new TreeCounter(horizon, rho, stream));
}

}  // namespace stream
}  // namespace longdp
