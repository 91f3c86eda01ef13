// Small numeric helpers shared across the library: integer log2 floors and
// tree-level counts, streaming moment accumulation (Welford), and quantiles
// (R type-7, matching the paper's R-based evaluation scripts).

#ifndef LONGDP_UTIL_MATHUTIL_H_
#define LONGDP_UTIL_MATHUTIL_H_

#include <cstdint>
#include <vector>

namespace longdp {
namespace util {

/// floor(log2(x)) for x >= 1.
int FloorLog2(uint64_t x);

/// max(ceil(log2(x)), 1) — the "number of tree levels" quantity L_b used in
/// the paper's Corollary B.1 budget split.
int TreeLevels(uint64_t x);

/// \brief Numerically stable streaming mean/variance (Welford's algorithm).
class MomentAccumulator {
 public:
  void Add(double x);
  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 when fewer than two observations.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Quantile of `values` at probability p in [0,1] using R's default type-7
/// linear interpolation. Sorts a copy; empty input returns 0.
double Quantile(std::vector<double> values, double p);

/// Median shorthand.
double Median(std::vector<double> values);

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& values);

}  // namespace util
}  // namespace longdp

#endif  // LONGDP_UTIL_MATHUTIL_H_
