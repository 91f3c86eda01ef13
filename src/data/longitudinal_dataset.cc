#include "data/longitudinal_dataset.h"

#include <algorithm>
#include <bit>
#include <string>

#include "util/simd/simd.h"

namespace longdp {
namespace data {

Result<LongitudinalDataset> LongitudinalDataset::Create(int64_t num_users,
                                                        int64_t horizon) {
  if (num_users < 0) {
    return Status::InvalidArgument("num_users must be >= 0");
  }
  if (horizon < 1) {
    return Status::InvalidArgument("horizon must be >= 1");
  }
  if (horizon > util::simd::kMaxHorizon) {
    return Status::InvalidArgument(
        "horizon must be below 2^" + std::to_string(util::simd::kMaxPlanes) +
        ", got " + std::to_string(horizon));
  }
  LongitudinalDataset ds(num_users, horizon);
  ds.words_.reserve(static_cast<size_t>(horizon) * ds.words_per_round_);
  return ds;
}

Status LongitudinalDataset::CheckNextRound(int64_t size) const {
  if (rounds_ >= horizon_) {
    return Status::OutOfRange("dataset already holds all " +
                              std::to_string(horizon_) + " rounds");
  }
  if (size != num_users_) {
    return Status::InvalidArgument(
        "round must contain exactly one bit per user (" +
        std::to_string(num_users_) + "), got " + std::to_string(size));
  }
  return Status::OK();
}

Status LongitudinalDataset::AppendRound(const std::vector<uint8_t>& bits) {
  LONGDP_RETURN_NOT_OK(CheckNextRound(static_cast<int64_t>(bits.size())));
  // Validated before the storage grows, so a rejected round leaves the
  // dataset unchanged.
  LONGDP_RETURN_NOT_OK(CheckSymbols(bits.data(), num_users_, 2));
  const size_t col = words_.size();
  words_.resize(col + words_per_round_);
  uint64_t* plane = words_.data() + col;
  SliceSymbols(bits.data(), num_users_, 1, &plane);
  ++rounds_;
  return Status::OK();
}

Status LongitudinalDataset::AppendPackedRound(RoundView round) {
  LONGDP_RETURN_NOT_OK(CheckNextRound(round.size()));
  words_.insert(words_.end(), round.words(),
                round.words() + words_per_round_);
  ++rounds_;
  return Status::OK();
}

util::Pattern LongitudinalDataset::SuffixPattern(int64_t user, int64_t t,
                                                 int k) const {
  util::Pattern p = 0;
  for (int64_t tt = t - k + 1; tt <= t; ++tt) {
    int bit = (tt >= 1 && tt <= rounds_) ? Bit(user, tt) : 0;
    p = (p << 1) | static_cast<util::Pattern>(bit);
  }
  return p;
}

Result<std::vector<int64_t>> LongitudinalDataset::WindowHistogram(
    int64_t t, int k) const {
  LONGDP_RETURN_NOT_OK(util::ValidateWindow(k));
  if (t < k || t > rounds_) {
    return Status::OutOfRange("WindowHistogram requires k <= t <= rounds()");
  }
  std::vector<int64_t> hist(util::NumPatterns(k), 0);
  ForEachSuffixPattern(t, k,
                       [&](int64_t, util::Pattern p) { ++hist[p]; });
  return hist;
}

std::vector<int64_t> LongitudinalDataset::WeightHistogram(
    int64_t t, const uint64_t* mask) const {
  // Weights through t are at most t, so bit_width(t) planes hold them all
  // (one plane at t = 0, whose weights are all zero).
  const int planes =
      std::max(1, static_cast<int>(std::bit_width(static_cast<uint64_t>(t))));
  const size_t wpr = words_per_round_;
  std::vector<uint64_t> weights(static_cast<size_t>(planes) * wpr, 0);
  uint64_t* plane_ptrs[util::simd::kMaxPlanes];
  for (int j = 0; j < planes; ++j) {
    plane_ptrs[j] = weights.data() + static_cast<size_t>(j) * wpr;
  }
  for (int64_t tt = 1; tt <= t; ++tt) {
    util::simd::PlaneAdd(plane_ptrs, planes, Round(tt).words(), wpr);
  }
  std::vector<int64_t> hist(size_t{1} << planes, 0);
  util::simd::PlaneHistogram(plane_ptrs, planes, mask, wpr, hist.data());
  // Unmasked, the all-zero tail lanes past num_users_ counted as weight 0.
  if (mask == nullptr) hist[0] -= static_cast<int64_t>(wpr * 64) - num_users_;
  return hist;
}

Result<std::vector<int64_t>> LongitudinalDataset::CumulativeCounts(
    int64_t t) const {
  if (t < 1 || t > rounds_) {
    return Status::OutOfRange("CumulativeCounts requires 1 <= t <= rounds()");
  }
  // Suffix-sum the exact-weight histogram into >=-threshold counts. Its
  // entries past t (<= horizon) are zero.
  const std::vector<int64_t> exact = WeightHistogram(t, nullptr);
  std::vector<int64_t> cum(static_cast<size_t>(horizon_) + 1, 0);
  int64_t running = 0;
  for (int64_t b = t; b >= 0; --b) {
    running += exact[static_cast<size_t>(b)];
    cum[static_cast<size_t>(b)] = running;
  }
  return cum;
}

Result<std::vector<int64_t>> LongitudinalDataset::WeightIncrements(
    int64_t t) const {
  if (t < 1 || t > rounds_) {
    return Status::OutOfRange("WeightIncrements requires 1 <= t <= rounds()");
  }
  // The users set at round t, histogrammed by their weight through t - 1:
  // each reaches weight w + 1 = b exactly at time t. Weights through t - 1
  // are below t <= horizon, so the first t entries carry every count.
  const std::vector<int64_t> hist = WeightHistogram(t - 1, Round(t).words());
  std::vector<int64_t> z(static_cast<size_t>(horizon_), 0);
  std::copy(hist.begin(), hist.begin() + t, z.begin());
  return z;
}

}  // namespace data
}  // namespace longdp
