#include "util/mathutil.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace longdp {
namespace util {

int FloorLog2(uint64_t x) {
  int l = 0;
  while (x > 1) {
    x >>= 1;
    ++l;
  }
  return l;
}

int TreeLevels(uint64_t x) {
  // ceil(log2(x)) = bit_width(x - 1) for x >= 2.
  return x <= 2 ? 1 : static_cast<int>(std::bit_width(x - 1));
}

void MomentAccumulator::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double MomentAccumulator::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double MomentAccumulator::stddev() const { return std::sqrt(variance()); }

double Quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  if (p <= 0.0) return *std::min_element(values.begin(), values.end());
  if (p >= 1.0) return *std::max_element(values.begin(), values.end());
  std::sort(values.begin(), values.end());
  // R type-7: h = (n-1)p; interpolate between floor(h) and floor(h)+1.
  double h = static_cast<double>(values.size() - 1) * p;
  size_t lo = static_cast<size_t>(std::floor(h));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = h - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

}  // namespace util
}  // namespace longdp
