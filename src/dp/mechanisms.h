// The zCDP calibration rules the paper uses (Section 2.2 and Section 3.1):
// the discrete Gaussian variance for a rho-zCDP release, its inverse, and
// the zCDP -> (epsilon, delta)-DP conversion. The noise itself is drawn by
// dp::NoiseSampler (dp/noise_sampler.h).

#ifndef LONGDP_DP_MECHANISMS_H_
#define LONGDP_DP_MECHANISMS_H_

#include "util/status.h"

namespace longdp {
namespace dp {

/// Variance of the discrete Gaussian mechanism achieving rho-zCDP for a
/// query with L2 sensitivity `sensitivity`:
///     sigma^2 = sensitivity^2 / (2 rho).
/// rho == +infinity (or <= 0 sensitivity) yields 0 (the zero-noise test
/// path). Returns InvalidArgument for rho <= 0.
Result<double> GaussianSigma2ForZCdp(double rho, double sensitivity);

/// zCDP cost of adding discrete Gaussian noise with variance sigma2 to a
/// sensitivity-`sensitivity` query: rho = sensitivity^2 / (2 sigma2).
/// sigma2 == 0 costs infinity.
double ZCdpCostOfGaussian(double sigma2, double sensitivity);

/// Converts a rho-zCDP guarantee into an (epsilon, delta)-DP guarantee via
/// epsilon = rho + 2 sqrt(rho log(1/delta))  (Bun-Steinke'16 Prop. 1.3).
double ZCdpToApproxDpEpsilon(double rho, double delta);

}  // namespace dp
}  // namespace longdp

#endif  // LONGDP_DP_MECHANISMS_H_
