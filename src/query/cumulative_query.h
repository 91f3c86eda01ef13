// Cumulative time queries (paper Section 2.1):
//   c^t_b(x) = I( x^1 + ... + x^t >= b ),
// averaged over users — "what fraction of individuals have been in state 1
// for at least b of the first t periods".

#ifndef LONGDP_QUERY_CUMULATIVE_QUERY_H_
#define LONGDP_QUERY_CUMULATIVE_QUERY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/longitudinal_dataset.h"
#include "util/status.h"

namespace longdp {
namespace data {
class LongitudinalDataset;
}

namespace query {

/// Fraction of users in `dataset` with Hamming weight >= b through round t.
/// b = 0 always answers 1. Requires 1 <= t <= rounds(), 0 <= b <= horizon.
Result<double> EvaluateCumulativeOnDataset(
    const data::LongitudinalDataset& dataset, int64_t t, int64_t b);

/// The "exactly b ones between t1 and t2" count that the paper's Section 1.1
/// derives from cumulative counts: CountOcc_{=b}(t1, t2) =
/// (#weight >= b at t2) - (#weight >= b-1 at t1), evaluated on threshold-
/// count rows (index = b, as produced by CumulativeCounts or a synthesizer's
/// released Shat rows). Requires b >= 1 and both rows of equal size > b.
/// The span form is the primitive; it serves threshold rows in place (e.g.
/// straight off an mmap'd release archive). InvalidArgument if the
/// difference overflows int64 (forged rows).
Result<int64_t> CountOccExactFromThresholds(
    std::span<const int64_t> thresholds_t2,
    std::span<const int64_t> thresholds_t1, int64_t b);
Result<int64_t> CountOccExactFromThresholds(
    const std::vector<int64_t>& thresholds_t2,
    const std::vector<int64_t>& thresholds_t1, int64_t b);

}  // namespace query
}  // namespace longdp

#endif  // LONGDP_QUERY_CUMULATIVE_QUERY_H_
