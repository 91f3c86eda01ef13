#include "util/batch_sampler.h"

namespace longdp {
namespace util {

namespace {

// 64x64 -> 128-bit multiply; returns the high word, stores the low word.
#if defined(__SIZEOF_INT128__)
inline uint64_t MulShift(uint64_t x, uint64_t bound, uint64_t* lo) {
  const unsigned __int128 m =
      static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(bound);
  *lo = static_cast<uint64_t>(m);
  return static_cast<uint64_t>(m >> 64);
}
#else
// Portable fallback via 32-bit limbs for toolchains without __int128.
inline uint64_t MulShift(uint64_t x, uint64_t bound, uint64_t* lo) {
  const uint64_t x_lo = x & 0xFFFFFFFFull, x_hi = x >> 32;
  const uint64_t b_lo = bound & 0xFFFFFFFFull, b_hi = bound >> 32;
  const uint64_t ll = x_lo * b_lo;
  const uint64_t lh = x_lo * b_hi;
  const uint64_t hl = x_hi * b_lo;
  const uint64_t hh = x_hi * b_hi;
  const uint64_t mid = (ll >> 32) + (lh & 0xFFFFFFFFull) + (hl & 0xFFFFFFFFull);
  *lo = (ll & 0xFFFFFFFFull) | (mid << 32);
  return hh + (lh >> 32) + (hl >> 32) + (mid >> 32);
}
#endif

}  // namespace

uint64_t BatchSampler::Bounded(uint64_t bound) {
  // A bound of 0 or 1 has one representable answer; consume nothing.
  if (bound <= 1) return 0;
  uint64_t lo;
  uint64_t hi = MulShift(rng_->Next(), bound, &lo);
  if (lo < bound) {
    // Possible-bias fringe: now (and only now) pay the division for the
    // exact rejection threshold 2^64 mod bound.
    const uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      hi = MulShift(rng_->Next(), bound, &lo);
    }
  }
  return hi;
}

void BatchSampler::BoundedBulk(uint64_t bound, uint64_t* out, size_t count) {
  if (bound <= 1) {
    std::fill(out, out + count, uint64_t{0});
    return;
  }
  uint64_t threshold = 0;
  bool have_threshold = false;
  uint64_t words[kChunkWords];
  size_t i = 0;
  while (i < count) {
    // Prefetch exactly the words still owed (one per remaining draw):
    // FillWords batches the word generation (SIMD for SubstreamRng) and the
    // multiply/store conversion below is independent work per element.
    const size_t c = std::min(kChunkWords, count - i);
    rng_->FillWords(words, c);
    for (size_t w = 0; w < c; ++w, ++i) {
      uint64_t lo;
      uint64_t hi = MulShift(words[w], bound, &lo);
      if (lo < bound) {
        if (!have_threshold) {
          threshold = (0 - bound) % bound;
          have_threshold = true;
        }
        while (lo < threshold) {
          hi = MulShift(rng_->Next(), bound, &lo);
        }
      }
      out[i] = hi;
    }
  }
}

size_t BatchSampler::FillDecreasingDraws(uint64_t n, uint64_t start,
                                         size_t count, uint64_t* out) {
  const size_t c = std::min(kChunkWords, count);
  uint64_t words[kChunkWords];
  rng_->FillWords(words, c);
  for (size_t w = 0; w < c; ++w) {
    const uint64_t bound = n - (start + static_cast<uint64_t>(w));
    uint64_t lo;
    uint64_t hi = MulShift(words[w], bound, &lo);
    if (lo < bound) {
      const uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        hi = MulShift(rng_->Next(), bound, &lo);
      }
    }
    out[w] = hi;
  }
  return c;
}

}  // namespace util
}  // namespace longdp
