#include "dp/mechanisms.h"

#include <cmath>
#include <limits>
#include <string>

namespace longdp {
namespace dp {

Result<double> GaussianSigma2ForZCdp(double rho, double sensitivity) {
  if (!(rho > 0.0)) {
    return Status::InvalidArgument("privacy parameter rho must be > 0, got " +
                                   std::to_string(rho));
  }
  if (sensitivity < 0.0) {
    return Status::InvalidArgument("sensitivity must be >= 0");
  }
  if (std::isinf(rho) || sensitivity == 0.0) return 0.0;
  return sensitivity * sensitivity / (2.0 * rho);
}

double ZCdpCostOfGaussian(double sigma2, double sensitivity) {
  if (sigma2 <= 0.0) {
    return sensitivity == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return sensitivity * sensitivity / (2.0 * sigma2);
}

double ZCdpToApproxDpEpsilon(double rho, double delta) {
  if (rho <= 0.0) return 0.0;
  if (delta <= 0.0 || delta >= 1.0) return std::numeric_limits<double>::infinity();
  return rho + 2.0 * std::sqrt(rho * std::log(1.0 / delta));
}

}  // namespace dp
}  // namespace longdp
