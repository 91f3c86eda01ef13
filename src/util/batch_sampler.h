// Batched bounded-uniform sampling over a util::SubstreamRng word stream.
//
// SubstreamRng::UniformInt pays a 64-bit division per draw (the classic
// rejection threshold `(-bound) % bound` is computed up front, every time).
// Stage 2 of every synthesizer is a long run of such draws — per-group
// Fisher-Yates promotion selections and cohort partial shuffles — so the
// division dominates once stage 1 is word-parallel. BatchSampler replaces
// the hot path with Lemire's multiply-shift rejection (Lemire, "Fast random
// integer generation in an interval", TOMACS 2019):
//
//   m  = x * bound            (64x64 -> 128-bit product)
//   hi = m >> 64              (the candidate draw, already in [0, bound))
//   lo = m mod 2^64           (accept unless lo lands in the biased fringe)
//
// The division for the exact rejection threshold `2^64 mod bound` is only
// evaluated when `lo < bound` — probability bound / 2^64, i.e. essentially
// never for the group sizes stage 2 sees — so the common path is one
// multiply and one compare. Bulk fills additionally prefetch raw words in
// chunks through SubstreamRng::FillWords (SIMD-batched), so word generation
// is not interleaved with the multiply/store work of each conversion.
//
// Stream discipline: every method consumes words in stream order and
// consumes EXACTLY one word per accepted draw plus one per rejection —
// prefetched chunks are sized by the number of draws still owed, so no word
// is ever fetched and discarded. Results are therefore a deterministic
// function of (seed, call sequence) on every platform, like everything else
// built on util::SubstreamRng.
//
// Edge semantics (the bounds the old hand-rolled loops special-cased):
//   * Bounded(0) == 0 and Bounded(1) == 0, consuming NO words — a
//     single-element range has one representable answer.
//     (SubstreamRng::UniformInt(1) consumes a word; BatchSampler
//     deliberately does not.)
//   * PartialShuffle clamps k to n and skips the final bound-1 draw, so a
//     full shuffle (k == n) and a maximal partial shuffle (k == n-1) consume
//     identical streams and both leave a uniform permutation.

#ifndef LONGDP_UTIL_BATCH_SAMPLER_H_
#define LONGDP_UTIL_BATCH_SAMPLER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/substream.h"

namespace longdp {
namespace util {

class BatchSampler {
 public:
  /// Non-owning; `rng` must outlive the sampler. The sampler holds no
  /// buffered words between calls — interleaving BatchSampler draws with
  /// direct SubstreamRng draws is safe and deterministic.
  explicit BatchSampler(SubstreamRng* rng) : rng_(rng) {}

  /// One uniform draw in [0, bound) via multiply-shift rejection.
  /// bound <= 1 returns 0 without consuming a word.
  uint64_t Bounded(uint64_t bound);

  /// Fills out[0..count) with iid uniform draws in [0, bound), prefetching
  /// words in chunks. bound <= 1 zero-fills without consuming words.
  void BoundedBulk(uint64_t bound, uint64_t* out, size_t count);

  /// Partial Fisher-Yates: after the call, data[0..min(k, n)) is a
  /// uniformly chosen min(k, n)-subset of the n elements, in uniform
  /// order; data[min(k, n)..n) holds the remainder. Consumes
  /// min(k, n-1) draws (the final bound-1 draw of a full shuffle is
  /// skipped). k <= 0 or n <= 1 is a no-op.
  template <typename T>
  void PartialShuffle(T* data, int64_t n, int64_t k) {
    if (n <= 1 || k <= 0) return;
    if (k > n) k = n;
    const int64_t draws = std::min(k, n - 1);
    uint64_t js[kChunkWords];
    int64_t i = 0;
    while (i < draws) {
      const size_t c = FillDecreasingDraws(static_cast<uint64_t>(n),
                                           static_cast<uint64_t>(i),
                                           static_cast<size_t>(draws - i), js);
      for (size_t w = 0; w < c; ++w, ++i) {
        const int64_t j = i + static_cast<int64_t>(js[w]);
        std::swap(data[i], data[static_cast<size_t>(j)]);
      }
    }
  }

  /// Full Fisher-Yates shuffle of `v` (n-1 draws).
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    PartialShuffle(v->data(), static_cast<int64_t>(v->size()),
                   static_cast<int64_t>(v->size()));
  }

 private:
  static constexpr size_t kChunkWords = 256;

  /// Fills out[c] ~ U[0, n - (start + c)) for c in [0, min(count, chunk))
  /// and returns how many it filled. Caller guarantees every bound >= 2.
  size_t FillDecreasingDraws(uint64_t n, uint64_t start, size_t count,
                             uint64_t* out);

  SubstreamRng* rng_;
};

}  // namespace util
}  // namespace longdp

#endif  // LONGDP_UTIL_BATCH_SAMPLER_H_
