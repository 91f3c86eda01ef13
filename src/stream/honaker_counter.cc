#include "stream/honaker_counter.h"

#include <cmath>

#include "util/mathutil.h"

namespace longdp {
namespace stream {

HonakerCounter::HonakerCounter(int64_t horizon, double rho,
                               const util::SubstreamRng& stream)
    : horizon_(horizon),
      rho_(rho),
      levels_(util::FloorLog2(static_cast<uint64_t>(horizon)) + 1),
      sigma2_(std::isinf(rho) ? 0.0
                              : static_cast<double>(levels_) / (2.0 * rho)),
      noise_(dp::NoiseSampler::Gaussian(sigma2_)),
      true_sum_(static_cast<size_t>(levels_), 0),
      estimate_(static_cast<size_t>(levels_), 0.0),
      occupied_(static_cast<size_t>(levels_), false),
      level_var_(static_cast<size_t>(levels_), 0.0) {
  // Refined variance recurrence: leaves carry the raw node variance; an
  // internal node combines its own noise with the two refined children.
  if (sigma2_ > 0.0) {
    level_var_[0] = sigma2_;
    for (int j = 1; j < levels_; ++j) {
      double child_sum_var = 2.0 * level_var_[static_cast<size_t>(j - 1)];
      level_var_[static_cast<size_t>(j)] =
          1.0 / (1.0 / sigma2_ + 1.0 / child_sum_var);
    }
  }
  level_streams_.reserve(static_cast<size_t>(levels_));
  for (int j = 0; j < levels_; ++j) {
    level_streams_.push_back(stream.Leaf(static_cast<uint64_t>(j)));
  }
}

Result<int64_t> HonakerCounter::Observe(int64_t z) {
  if (t_ >= horizon_) {
    return Status::OutOfRange("honaker counter past its horizon T=" +
                              std::to_string(horizon_));
  }
  ++t_;
  // New leaf node: a level-0 completion.
  int64_t cur_true = z;
  double cur_est = static_cast<double>(z) +
                   static_cast<double>(noise_.Draw(&level_streams_[0]));
  int level = 0;
  // Binary-counter carry: merge equal-sized completed subtrees upward. The
  // carry forming a node at level `level + 1` must stay inside the level
  // table (and its substreams), so the overflow check runs before the draw.
  while (level < levels_ && occupied_[static_cast<size_t>(level)]) {
    if (level + 1 >= levels_) {
      return Status::Internal("honaker counter carry overflowed its levels");
    }
    size_t l = static_cast<size_t>(level);
    int64_t parent_true = true_sum_[l] + cur_true;
    double children_est = estimate_[l] + cur_est;
    occupied_[l] = false;
    true_sum_[l] = 0;
    estimate_[l] = 0.0;
    double parent_noisy =
        static_cast<double>(parent_true) +
        static_cast<double>(noise_.Draw(&level_streams_[l + 1]));
    if (sigma2_ > 0.0) {
      double child_sum_var = 2.0 * level_var_[l];
      double w_node = 1.0 / sigma2_;
      double w_children = 1.0 / child_sum_var;
      cur_est = (parent_noisy * w_node + children_est * w_children) /
                (w_node + w_children);
    } else {
      cur_est = static_cast<double>(parent_true);
    }
    cur_true = parent_true;
    ++level;
  }
  size_t l = static_cast<size_t>(level);
  occupied_[l] = true;
  true_sum_[l] = cur_true;
  estimate_[l] = cur_est;

  double s = 0.0;
  for (int j = 0; j < levels_; ++j) {
    if (occupied_[static_cast<size_t>(j)]) {
      s += estimate_[static_cast<size_t>(j)];
    }
  }
  return static_cast<int64_t>(std::llround(s));
}

double HonakerCounter::LevelVariance(int level) const {
  if (level < 0 || level >= levels_) return 0.0;
  return level_var_[static_cast<size_t>(level)];
}

double HonakerCounter::ErrorBound(double beta, int64_t t) const {
  if (sigma2_ == 0.0) return 0.0;
  if (t < 1) t = 1;
  if (beta <= 0.0) beta = 1e-12;
  double var = 0.0;
  for (int j = 0; j < levels_; ++j) {
    if ((t >> j) & 1) var += level_var_[static_cast<size_t>(j)];
  }
  // +0.5 accounts for the final integer rounding of the estimate.
  return std::sqrt(2.0 * var * std::log(2.0 / beta)) + 0.5;
}

Result<std::unique_ptr<StreamCounter>> HonakerCounterFactory::Create(
    int64_t horizon, double rho, const util::SubstreamRng& stream) const {
  if (horizon < 1) {
    return Status::InvalidArgument("stream horizon must be >= 1, got " +
                                   std::to_string(horizon));
  }
  if (!(rho > 0.0)) {
    return Status::InvalidArgument("stream counter rho must be > 0");
  }
  return std::unique_ptr<StreamCounter>(
      new HonakerCounter(horizon, rho, stream));
}

}  // namespace stream
}  // namespace longdp
