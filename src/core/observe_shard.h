// Shared fused stage-1 kernel for the window synthesizers: one pass that
// slides every user's window state AND counts the updated windows into a
// histogram, sharded over a util::ThreadPool when one is configured.
//
// The branch structure (and its determinism argument) lives here once so
// the binary and categorical synthesizers cannot diverge:
//
//  * pool present and n >= bins * shards  -> fused slide + per-shard
//    histograms, reduced into `hist` in shard order (ordered integer sums
//    over a fixed contiguous partition — identical at every thread count);
//  * otherwise (no pool, or a population too small for per-shard
//    zero-fills; the gate depends only on (n, bins, shards), never on
//    timing)                              -> one serial fused pass.
//
// Warm-up rounds, which release nothing, take the same path and ignore
// the histogram. `update(i)` must advance record i's window state and
// return its new bin. It must be RNG-free and touch only record i's
// state — that disjointness is what makes the shards race-free and the
// output thread-count invariant.

#ifndef LONGDP_CORE_OBSERVE_SHARD_H_
#define LONGDP_CORE_OBSERVE_SHARD_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/thread_pool.h"

namespace longdp {
namespace core {

template <typename UpdateFn>
void ShardedSlideAndCount(util::ThreadPool* pool, int64_t n, size_t bins,
                          std::vector<int64_t>* hist,
                          std::vector<std::vector<int64_t>>* shard_hist,
                          UpdateFn&& update) {
  const int shards = util::NumShards(pool);
  hist->assign(bins, 0);
  if (shards > 1 &&
      static_cast<uint64_t>(n) >=
          static_cast<uint64_t>(bins) * static_cast<uint64_t>(shards)) {
    if (shard_hist->size() != static_cast<size_t>(shards)) {
      shard_hist->assign(static_cast<size_t>(shards),
                         std::vector<int64_t>(bins, 0));
    }
    pool->ParallelFor(n, [&](int s, int64_t lo, int64_t hi) {
      auto& h = (*shard_hist)[static_cast<size_t>(s)];
      std::fill(h.begin(), h.end(), 0);
      for (int64_t i = lo; i < hi; ++i) ++h[update(i)];
    });
    for (const auto& h : *shard_hist) {
      for (size_t b = 0; b < bins; ++b) (*hist)[b] += h[b];
    }
    return;
  }
  for (int64_t i = 0; i < n; ++i) ++(*hist)[update(i)];
}

}  // namespace core
}  // namespace longdp

#endif  // LONGDP_CORE_OBSERVE_SHARD_H_
