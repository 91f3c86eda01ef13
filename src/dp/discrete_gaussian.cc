#include "dp/discrete_gaussian.h"

#include <cmath>

namespace longdp {
namespace dp {

bool SampleBernoulliExpNeg(double gamma, util::SubstreamRng* rng) {
  if (gamma <= 0.0) return true;
  if (gamma <= 1.0) {
    // CKS'20 Algorithm 1: K <- 1; while Bernoulli(gamma/K) succeeds, K++.
    // The loop exits at K with probability gamma^{K-1}/(K-1)! - gamma^K/K!,
    // and Pr[K odd at exit] = exp(-gamma).
    uint64_t k = 1;
    for (;;) {
      if (!rng->Bernoulli(gamma / static_cast<double>(k))) break;
      ++k;
    }
    return (k % 2) == 1;
  }
  // gamma > 1: exp(-gamma) = exp(-1)^floor(gamma) * exp(-(gamma - floor)).
  double whole = std::floor(gamma);
  for (double i = 0; i < whole; ++i) {
    if (!SampleBernoulliExpNeg(1.0, rng)) return false;
  }
  return SampleBernoulliExpNeg(gamma - whole, rng);
}

int64_t SampleDiscreteLaplace(double s, util::SubstreamRng* rng) {
  // !(s > 0.0) instead of s <= 0.0: also catches NaN. Identical behavior in
  // debug and release — see the header contract.
  if (!(s > 0.0)) return 0;
  const uint64_t t = static_cast<uint64_t>(std::floor(s)) + 1;
  for (;;) {
    // Offset U in {0,...,t-1}, accepted with probability exp(-U/s).
    uint64_t u = rng->UniformInt(t);
    if (!SampleBernoulliExpNeg(static_cast<double>(u) / s, rng)) continue;
    // Geometric tail: V counts consecutive successes of Bernoulli(exp(-t/s)).
    uint64_t v = 0;
    while (SampleBernoulliExpNeg(static_cast<double>(t) / s, rng)) ++v;
    uint64_t magnitude = u + t * v;
    bool negative = rng->Coin();
    if (negative && magnitude == 0) continue;  // avoid double-counting zero
    return negative ? -static_cast<int64_t>(magnitude)
                    : static_cast<int64_t>(magnitude);
  }
}

int64_t SampleDiscreteGaussian(double sigma2, util::SubstreamRng* rng) {
  // !(sigma2 > 0.0) instead of sigma2 <= 0.0: also catches NaN. Identical
  // behavior in debug and release — see the header contract.
  if (!(sigma2 > 0.0)) return 0;
  const double sigma = std::sqrt(sigma2);
  const double t = std::floor(sigma) + 1.0;
  for (;;) {
    int64_t y = SampleDiscreteLaplace(t, rng);
    double ay = std::fabs(static_cast<double>(y));
    double diff = ay - sigma2 / t;
    double gamma = diff * diff / (2.0 * sigma2);
    if (SampleBernoulliExpNeg(gamma, rng)) return y;
  }
}

double DiscreteGaussianPmf(int64_t x, double sigma2) {
  if (sigma2 <= 0.0) return x == 0 ? 1.0 : 0.0;
  // Normalizer: sum over y of exp(-y^2 / (2 sigma2)); terms decay fast, so
  // truncating at 20 standard deviations loses < 1e-80 of the mass.
  const int64_t radius =
      static_cast<int64_t>(std::ceil(20.0 * std::sqrt(sigma2))) + 1;
  double z = 0.0;
  for (int64_t y = -radius; y <= radius; ++y) {
    z += std::exp(-static_cast<double>(y) * static_cast<double>(y) /
                  (2.0 * sigma2));
  }
  double num = std::exp(-static_cast<double>(x) * static_cast<double>(x) /
                        (2.0 * sigma2));
  return num / z;
}

double DiscreteGaussianTailBound(double lambda, double sigma2) {
  if (sigma2 <= 0.0) return lambda > 0 ? 0.0 : 1.0;
  if (lambda <= 0.0) return 1.0;
  return std::exp(-lambda * lambda / (2.0 * sigma2));
}

}  // namespace dp
}  // namespace longdp
