#include "stream/tree_counter.h"

#include <cmath>

#include "util/bits.h"
#include "util/mathutil.h"

namespace longdp {
namespace stream {

namespace {

using Kind = dp::NoiseSampler::Kind;

// The per-node noise parameter for a tree of `levels` levels at total
// budget rho (see the header): sigma^2 = L / (2 rho) for Gaussian, scale
// L / epsilon with epsilon = sqrt(2 rho) for Laplace.
double NodeNoiseParam(Kind kind, int levels, double rho) {
  if (std::isinf(rho)) return 0.0;
  const double l = static_cast<double>(levels);
  return kind == Kind::kGaussian ? l / (2.0 * rho) : l / std::sqrt(2.0 * rho);
}

}  // namespace

TreeCounter::TreeCounter(int64_t horizon, double rho,
                         const util::SubstreamRng& stream, Kind noise)
    : horizon_(horizon),
      rho_(rho),
      levels_(util::FloorLog2(static_cast<uint64_t>(horizon)) + 1),
      noise_(noise, NodeNoiseParam(noise, levels_, rho)),
      alpha_(static_cast<size_t>(levels_), 0),
      alpha_noisy_(static_cast<size_t>(levels_), 0) {
  level_streams_.reserve(static_cast<size_t>(levels_));
  for (int j = 0; j < levels_; ++j) {
    level_streams_.push_back(stream.Leaf(static_cast<uint64_t>(j)));
  }
}

std::string TreeCounter::name() const {
  return noise_.kind() == Kind::kGaussian ? "tree" : "laplace-tree";
}

Result<int64_t> TreeCounter::Observe(int64_t z) {
  if (t_ >= horizon_) {
    return Status::OutOfRange(name() + " counter past its horizon T=" +
                              std::to_string(horizon_));
  }
  return Step(z);
}

double TreeCounter::ErrorBound(double beta, int64_t t) const {
  const double param = noise_.param();
  if (param == 0.0) return 0.0;
  if (t < 1) t = 1;
  if (beta <= 0.0) beta = 1e-12;
  // S~_t - S_t is a sum of m = popcount(t) independent node noises.
  const int m = util::Popcount(static_cast<uint64_t>(t));
  if (noise_.kind() == Kind::kLaplace) {
    // Each discrete Laplace(scale) term is subexponential; a per-term union
    // bound gives |X_i| <= scale * ln(2m/beta) each with prob 1 - beta/m.
    return static_cast<double>(m) * param *
           std::log(2.0 * static_cast<double>(m) / beta);
  }
  // Each discrete Gaussian is subgaussian with parameter sigma^2;
  // two-sided tail bound.
  const double var = static_cast<double>(m) * param;
  return std::sqrt(2.0 * var * std::log(2.0 / beta));
}

}  // namespace stream
}  // namespace longdp
