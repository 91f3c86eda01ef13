#include "core/theory.h"

#include <cmath>

#include "stream/budget_split.h"
#include "stream/state_io.h"
#include "util/bits.h"

namespace longdp {
namespace core {
namespace theory {

namespace {
Status ValidateFixedWindowArgs(int64_t horizon, int window_k, double rho,
                               double beta) {
  LONGDP_RETURN_NOT_OK(util::ValidateWindow(window_k));
  if (horizon < window_k) {
    return Status::InvalidArgument("horizon T must be >= window k");
  }
  if (!(rho > 0.0)) {
    return Status::InvalidArgument("rho must be > 0");
  }
  if (!(beta > 0.0) || beta >= 1.0) {
    return Status::InvalidArgument("beta must be in (0,1)");
  }
  return Status::OK();
}
}  // namespace

Result<double> FixedWindowSigma2(int64_t horizon, int window_k, double rho) {
  LONGDP_RETURN_NOT_OK(ValidateFixedWindowArgs(horizon, window_k, rho, 0.5));
  if (std::isinf(rho)) return 0.0;
  double steps = static_cast<double>(horizon - window_k + 1);
  return steps / (2.0 * rho);
}

Result<double> MaxBinCountErrorBound(int64_t horizon, int window_k, double rho,
                                     double beta) {
  LONGDP_RETURN_NOT_OK(ValidateFixedWindowArgs(horizon, window_k, rho, beta));
  if (std::isinf(rho)) return 0.0;
  double steps = static_cast<double>(horizon - window_k + 1);
  double lead = std::sqrt(steps / rho) + 1.0 / std::sqrt(2.0);
  double log_arg =
      std::log(static_cast<double>(util::NumPatterns(window_k)) * steps /
               beta);
  return lead * std::sqrt(log_arg);
}

Result<int64_t> RecommendedNpad(int64_t horizon, int window_k, double rho,
                                double beta) {
  if (std::isinf(rho)) return int64_t{0};
  LONGDP_ASSIGN_OR_RETURN(
      double bound, MaxBinCountErrorBound(horizon, window_k, rho, beta));
  return static_cast<int64_t>(std::ceil(bound));
}

Result<double> DebiasedFractionErrorBound(int64_t horizon, int window_k,
                                          double rho, double beta,
                                          int64_t n) {
  if (n <= 0) {
    return Status::InvalidArgument("population n must be > 0");
  }
  LONGDP_ASSIGN_OR_RETURN(
      double bound, MaxBinCountErrorBound(horizon, window_k, rho, beta));
  return bound / static_cast<double>(n);
}

Result<double> BiasedFractionErrorBound(int64_t horizon, int window_k,
                                        double rho, double beta, int64_t n,
                                        double bin_fraction) {
  if (n <= 0) {
    return Status::InvalidArgument("population n must be > 0");
  }
  if (bin_fraction < 0.0 || bin_fraction > 1.0) {
    return Status::InvalidArgument("bin_fraction must be in [0,1]");
  }
  LONGDP_ASSIGN_OR_RETURN(
      double lambda, MaxBinCountErrorBound(horizon, window_k, rho, beta));
  double dn = static_cast<double>(n);
  double pow_k1 = static_cast<double>(util::NumPatterns(window_k)) * 2.0;
  return 2.0 * lambda / dn + pow_k1 * lambda / dn * bin_fraction;
}

Result<double> CumulativeFractionErrorBound(int64_t horizon, double rho,
                                            double beta, int64_t n) {
  if (horizon < 1) {
    return Status::InvalidArgument("horizon must be >= 1");
  }
  if (!(rho > 0.0)) {
    return Status::InvalidArgument("rho must be > 0");
  }
  if (!(beta > 0.0) || beta >= 1.0) {
    return Status::InvalidArgument("beta must be in (0,1)");
  }
  if (n <= 0) {
    return Status::InvalidArgument("population n must be > 0");
  }
  if (std::isinf(rho)) return 0.0;
  double sum_l3 = 0.0;
  for (int64_t b = 1; b <= horizon; ++b) {
    double l = static_cast<double>(stream::LevelsForThreshold(horizon, b));
    sum_l3 += l * l * l;
  }
  return std::sqrt(sum_l3 / rho * std::log(1.0 / beta)) /
         static_cast<double>(n);
}

Result<double> RecomputePerStepSigma(int64_t horizon, int window_k,
                                     double rho) {
  LONGDP_ASSIGN_OR_RETURN(double sigma2,
                          FixedWindowSigma2(horizon, window_k, rho));
  return std::sqrt(sigma2);
}

int64_t MaxSyntheticRecords(int64_t n, uint64_t bins, int64_t npad,
                            double sigma2) {
  // In double: every operand is non-negative, so the only hazard is a
  // limit past the record cap (or past int64), which clamps. The cap keeps
  // a census forged alongside a huge npad or a tiny rho from sizing a
  // cohort no checkpoint could have saved.
  constexpr int64_t kCap = stream::state_io::kMaxRecords;
  const double per_bin =
      static_cast<double>(npad) + std::ceil(40.0 * std::sqrt(sigma2));
  const double limit =
      static_cast<double>(n) + static_cast<double>(bins) * per_bin;
  return limit < static_cast<double>(kCap) ? static_cast<int64_t>(limit)
                                           : kCap;
}

}  // namespace theory
}  // namespace core
}  // namespace longdp
