#include "query/cumulative_query.h"

namespace longdp {
namespace query {

Result<double> EvaluateCumulativeOnDataset(
    const data::LongitudinalDataset& dataset, int64_t t, int64_t b) {
  if (t < 1 || t > dataset.rounds()) {
    return Status::OutOfRange("query time t must be in [1, rounds()]");
  }
  if (b < 0 || b > dataset.horizon()) {
    return Status::OutOfRange("threshold b must be in [0, horizon]");
  }
  if (dataset.num_users() == 0) return 0.0;
  if (b == 0) return 1.0;
  LONGDP_ASSIGN_OR_RETURN(const std::vector<int64_t> counts,
                          dataset.CumulativeCounts(t));
  return static_cast<double>(counts[static_cast<size_t>(b)]) /
         static_cast<double>(dataset.num_users());
}

Result<int64_t> CountOccExactFromThresholds(
    std::span<const int64_t> thresholds_t2,
    std::span<const int64_t> thresholds_t1, int64_t b) {
  if (b < 1) {
    return Status::InvalidArgument("CountOcc_=b requires b >= 1");
  }
  if (thresholds_t1.size() != thresholds_t2.size() ||
      static_cast<size_t>(b) >= thresholds_t2.size()) {
    return Status::InvalidArgument(
        "threshold rows must have equal size > b");
  }
  return thresholds_t2[static_cast<size_t>(b)] -
         thresholds_t1[static_cast<size_t>(b - 1)];
}

Result<int64_t> CountOccExactFromThresholds(
    const std::vector<int64_t>& thresholds_t2,
    const std::vector<int64_t>& thresholds_t1, int64_t b) {
  return CountOccExactFromThresholds(std::span<const int64_t>(thresholds_t2),
                                     std::span<const int64_t>(thresholds_t1),
                                     b);
}

}  // namespace query
}  // namespace longdp
