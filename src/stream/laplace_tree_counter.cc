#include "stream/laplace_tree_counter.h"

#include <cmath>

#include "util/bits.h"
#include "util/mathutil.h"

namespace longdp {
namespace stream {

LaplaceTreeCounter::LaplaceTreeCounter(int64_t horizon, double rho,
                                       const util::SubstreamRng& stream)
    : horizon_(horizon),
      rho_(rho),
      epsilon_(std::isinf(rho) ? 0.0 : std::sqrt(2.0 * rho)),
      levels_(util::FloorLog2(static_cast<uint64_t>(horizon)) + 1),
      scale_(std::isinf(rho) ? 0.0
                             : static_cast<double>(levels_) / epsilon_),
      noise_(dp::NoiseSampler::Laplace(scale_)),
      alpha_(static_cast<size_t>(levels_), 0),
      alpha_noisy_(static_cast<size_t>(levels_), 0) {
  level_streams_.reserve(static_cast<size_t>(levels_));
  for (int j = 0; j < levels_; ++j) {
    level_streams_.push_back(stream.Leaf(static_cast<uint64_t>(j)));
  }
}

Result<int64_t> LaplaceTreeCounter::Observe(int64_t z) {
  if (t_ >= horizon_) {
    return Status::OutOfRange("laplace tree counter past its horizon T=" +
                              std::to_string(horizon_));
  }
  ++t_;
  int i = 0;
  while (((t_ >> i) & 1) == 0) ++i;
  int64_t acc = z;
  for (int j = 0; j < i; ++j) {
    acc += alpha_[static_cast<size_t>(j)];
    alpha_[static_cast<size_t>(j)] = 0;
    alpha_noisy_[static_cast<size_t>(j)] = 0;
  }
  alpha_[static_cast<size_t>(i)] = acc;
  alpha_noisy_[static_cast<size_t>(i)] =
      acc + noise_.Draw(&level_streams_[static_cast<size_t>(i)]);
  int64_t s = 0;
  for (int j = 0; j < levels_; ++j) {
    if ((t_ >> j) & 1) s += alpha_noisy_[static_cast<size_t>(j)];
  }
  return s;
}

double LaplaceTreeCounter::ErrorBound(double beta, int64_t t) const {
  if (scale_ <= 0.0) return 0.0;
  if (t < 1) t = 1;
  if (beta <= 0.0) beta = 1e-12;
  // Sum of m independent discrete Laplace(scale) variables. Each is
  // subexponential; a simple per-term union bound gives
  // |X_i| <= scale * ln(2m/beta) each with prob 1 - beta/m.
  int m = util::Popcount(static_cast<uint64_t>(t));
  return static_cast<double>(m) * scale_ *
         std::log(2.0 * static_cast<double>(m) / beta);
}

Result<std::unique_ptr<StreamCounter>> LaplaceTreeCounterFactory::Create(
    int64_t horizon, double rho, const util::SubstreamRng& stream) const {
  if (horizon < 1) {
    return Status::InvalidArgument("stream horizon must be >= 1, got " +
                                   std::to_string(horizon));
  }
  if (!(rho > 0.0)) {
    return Status::InvalidArgument("stream counter rho must be > 0");
  }
  return std::unique_ptr<StreamCounter>(
      new LaplaceTreeCounter(horizon, rho, stream));
}

}  // namespace stream
}  // namespace longdp
