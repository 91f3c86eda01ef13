// The window synthesizers' stage-1 count: a histogram of the bit-sliced
// window codes of n lanes, sharded over word ranges of a util::ThreadPool.
//
// Shards cover contiguous word ranges and count exact integer popcounts
// into per-shard histograms that reduce in shard order, so the result is
// identical at every shard and thread count. The gate (a pool with more
// than one shard and at least one word per shard) depends only on the
// population and the pool's grid, never on timing.

#ifndef LONGDP_CORE_PLANE_HISTOGRAM_H_
#define LONGDP_CORE_PLANE_HISTOGRAM_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/simd/simd.h"
#include "util/thread_pool.h"

namespace longdp {
namespace core {

/// Sets *hist (2^num_planes bins) to the histogram of the codes of lanes
/// [0, n), whose bit j lives in planes[j] (num_words words each, all-zero
/// past lane n). *shard_hist is per-shard scratch kept across calls.
inline void ShardedPlaneHistogram(
    util::ThreadPool* pool, const uint64_t* const* planes, int num_planes,
    size_t num_words, int64_t n, std::vector<int64_t>* hist,
    std::vector<std::vector<int64_t>>* shard_hist) {
  const size_t bins = size_t{1} << num_planes;
  hist->assign(bins, 0);
  if (n <= 0) return;
  const int shards = util::NumShards(pool);
  if (shards > 1 && num_words >= static_cast<size_t>(shards)) {
    if (shard_hist->size() != static_cast<size_t>(shards)) {
      shard_hist->assign(static_cast<size_t>(shards),
                         std::vector<int64_t>(bins, 0));
    }
    pool->ParallelFor(
        static_cast<int64_t>(num_words), [&](int s, int64_t lo, int64_t hi) {
          auto& h = (*shard_hist)[static_cast<size_t>(s)];
          std::fill(h.begin(), h.end(), 0);
          const uint64_t* sub[util::simd::kMaxPlanes];
          for (int j = 0; j < num_planes; ++j) sub[j] = planes[j] + lo;
          util::simd::PlaneHistogram(sub, num_planes, nullptr,
                                     static_cast<size_t>(hi - lo), h.data());
        });
    for (const auto& h : *shard_hist) {
      for (size_t b = 0; b < bins; ++b) (*hist)[b] += h[b];
    }
  } else {
    util::simd::PlaneHistogram(planes, num_planes, nullptr, num_words,
                               hist->data());
  }
  // Tail lanes past n in the last word are all-zero in every plane (the
  // RoundView packing invariant) and were counted into bin 0; remove them.
  (*hist)[0] -= static_cast<int64_t>(num_words * 64) - n;
}

}  // namespace core
}  // namespace longdp

#endif  // LONGDP_CORE_PLANE_HISTOGRAM_H_
