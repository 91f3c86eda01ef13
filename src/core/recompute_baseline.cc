#include "core/recompute_baseline.h"

#include <cmath>

namespace longdp {
namespace core {

Result<std::unique_ptr<RecomputeBaseline>> RecomputeBaseline::Create(
    const Options& options) {
  LONGDP_RETURN_NOT_OK(util::ValidateWindow(options.window_k));
  if (options.horizon < options.window_k) {
    return Status::InvalidArgument("horizon T must be >= window k");
  }
  if (!(options.rho > 0.0)) {
    return Status::InvalidArgument("rho must be > 0");
  }
  auto baseline =
      std::unique_ptr<RecomputeBaseline>(new RecomputeBaseline(options));
  double steps = static_cast<double>(options.horizon - options.window_k + 1);
  baseline->sigma2_ =
      std::isinf(options.rho) ? 0.0 : steps / (2.0 * options.rho);
  baseline->rho_per_step_ =
      std::isinf(options.rho) ? 0.0 : options.rho / steps;
  baseline->noise_ = dp::NoiseSampler::Gaussian(baseline->sigma2_);
  return baseline;
}

Status RecomputeBaseline::ObserveRound(data::RoundView round) {
  if (t_ >= options_.horizon) {
    return Status::OutOfRange("baseline past its horizon");
  }
  if (n_ < 0) {
    n_ = round.size();
    user_window_.assign(static_cast<size_t>(n_), 0);
  } else if (round.size() != n_) {
    return Status::InvalidArgument("round size changed");
  }
  for (int64_t i = 0; i < n_; ++i) {
    user_window_[static_cast<size_t>(i)] = util::SlideAppend(
        user_window_[static_cast<size_t>(i)], options_.window_k,
        round.bit(i));
  }
  ++t_;
  if (t_ < options_.window_k) return Status::OK();

  LONGDP_RETURN_NOT_OK(accountant_.Charge(
      rho_per_step_, "recompute histogram t=" + std::to_string(t_)));
  std::vector<int64_t> hist(util::NumPatterns(options_.window_k), 0);
  for (util::Pattern w : user_window_) ++hist[w];
  const util::SubstreamRng round_noise =
      noise_root_.Derive(static_cast<uint64_t>(t_));
  std::vector<int64_t> noise(hist.size());
  noise_.FillLeaves(round_noise, noise.size(), noise.data());
  for (size_t b = 0; b < hist.size(); ++b) {
    hist[b] += noise[b];
    if (hist[b] < 0) {
      hist[b] = 0;
      ++clamped_;
    }
  }
  current_ = std::move(hist);
  return Status::OK();
}

int64_t RecomputeBaseline::SyntheticPopulation() const {
  int64_t total = 0;
  for (int64_t c : current_) total += c;
  return total;
}

}  // namespace core
}  // namespace longdp
