// Shared templated kernel bodies, instantiated once per ISA translation
// unit over that ISA's traits struct (pgaccel's avx_traits idiom). A traits
// type T provides:
//
//   T::V                      vector of T::kWords uint64 lanes
//   T::kWords                 lanes per vector (1 for scalar)
//   T::Load / T::Store        unaligned load/store of kWords words
//   T::Set1 / T::Ones         broadcast / all-ones
//   T::And / T::AndNot / T::Xor / T::Add
//                             lanewise logic (AndNot(a, b) == ~a & b,
//                             matching the x86 intrinsic operand order)
//   T::IsZero                 whole-vector zero test
//   T::PopcountSum            total set bits across all lanes
//   T::SplitMixFinalize       lanewise SplitMix64 finalizer
//
// All kernels are integer-only, so every instantiation computes the exact
// same result; vector width only changes how many lanes move per iteration.

#ifndef LONGDP_UTIL_SIMD_SIMD_KERNELS_H_
#define LONGDP_UTIL_SIMD_SIMD_KERNELS_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace longdp {
namespace util {
namespace simd {
namespace internal {

/// The SplitMix64 golden-ratio increment; must match util/substream.cc's
/// kGamma (pinned by the FillStreamWords-vs-SubstreamRng equality test).
inline constexpr uint64_t kStreamGamma = 0x9E3779B97F4A7C15ULL;

/// Local inline mirror of util::SplitMix64Finalize (which lives out-of-line
/// in substream.cc); the stream-equality unit test pins the two functions
/// equal.
inline uint64_t Finalize64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Scalar traits: the reference instantiation and the tail handler for the
/// vector backends' non-multiple-of-kWords remainders.
struct ScalarTraits {
  using V = uint64_t;
  static constexpr size_t kWords = 1;
  static V Load(const uint64_t* p) { return *p; }
  static void Store(uint64_t* p, V v) { *p = v; }
  static V Set1(uint64_t x) { return x; }
  static V Ones() { return ~uint64_t{0}; }
  static V And(V a, V b) { return a & b; }
  static V AndNot(V a, V b) { return ~a & b; }
  static V Xor(V a, V b) { return a ^ b; }
  static V Add(V a, V b) { return a + b; }
  static bool IsZero(V v) { return v == 0; }
  static uint64_t PopcountSum(V v) {
    return static_cast<uint64_t>(std::popcount(v));
  }
  static V SplitMixFinalize(V z) { return Finalize64(z); }
};

template <typename T>
void FillStreamWordsT(uint64_t key, uint64_t cursor, uint64_t* out,
                      size_t count) {
  size_t i = 0;
  if constexpr (T::kWords > 1) {
    // z_l = key + (cursor + 1 + i + l) * gamma, advanced by adding
    // kWords * gamma per iteration — no per-word index multiply.
    uint64_t lane[T::kWords];
    for (size_t l = 0; l < T::kWords; ++l) {
      lane[l] = key + (cursor + 1 + l) * kStreamGamma;
    }
    typename T::V z = T::Load(lane);
    const typename T::V step = T::Set1(T::kWords * kStreamGamma);
    for (; i + T::kWords <= count; i += T::kWords) {
      T::Store(out + i, T::SplitMixFinalize(z));
      z = T::Add(z, step);
    }
  }
  for (; i < count; ++i) {
    out[i] = Finalize64(key + (cursor + 1 + i) * kStreamGamma);
  }
}

/// Depth-first recursion over the planes: the live-lane mask m is split by
/// plane `depth`'s bits into the value|0 and value|2^depth subtrees, and
/// subtrees whose mask empties are pruned — sparse codes (the common case:
/// most users' window pattern or weight shares few distinct values per
/// word) cost far fewer than 2^b popcounts per vector.
template <typename T>
void PlaneHistogramRecurse(const uint64_t* const* planes, int num_planes,
                           size_t w, typename T::V m, int depth,
                           uint32_t value, int64_t* hist) {
  if (T::IsZero(m)) return;
  if (depth == num_planes) {
    hist[value] += static_cast<int64_t>(T::PopcountSum(m));
    return;
  }
  const typename T::V p = T::Load(planes[depth] + w);
  PlaneHistogramRecurse<T>(planes, num_planes, w, T::AndNot(p, m), depth + 1,
                           value, hist);
  PlaneHistogramRecurse<T>(planes, num_planes, w, T::And(p, m), depth + 1,
                           value | (uint32_t{1} << depth), hist);
}

template <typename T>
void PlaneHistogramT(const uint64_t* const* planes, int num_planes,
                     const uint64_t* mask, size_t num_words, int64_t* hist) {
  size_t w = 0;
  if constexpr (T::kWords > 1) {
    for (; w + T::kWords <= num_words; w += T::kWords) {
      const typename T::V m = mask ? T::Load(mask + w) : T::Ones();
      PlaneHistogramRecurse<T>(planes, num_planes, w, m, 0, 0, hist);
    }
  }
  for (; w < num_words; ++w) {
    const uint64_t m = mask ? mask[w] : ~uint64_t{0};
    PlaneHistogramRecurse<ScalarTraits>(planes, num_planes, w, m, 0, 0, hist);
  }
}

template <typename T>
void PlaneAddT(uint64_t* const* planes, int num_planes,
               const uint64_t* addend, size_t num_words) {
  size_t w = 0;
  if constexpr (T::kWords > 1) {
    for (; w + T::kWords <= num_words; w += T::kWords) {
      typename T::V carry = T::Load(addend + w);
      for (int j = 0; j < num_planes && !T::IsZero(carry); ++j) {
        const typename T::V p = T::Load(planes[j] + w);
        T::Store(planes[j] + w, T::Xor(p, carry));
        carry = T::And(p, carry);
      }
    }
  }
  for (; w < num_words; ++w) {
    uint64_t carry = addend[w];
    for (int j = 0; j < num_planes && carry != 0; ++j) {
      const uint64_t p = planes[j][w];
      planes[j][w] = p ^ carry;
      carry = p & carry;
    }
  }
}

}  // namespace internal
}  // namespace simd
}  // namespace util
}  // namespace longdp

#endif  // LONGDP_UTIL_SIMD_SIMD_KERNELS_H_
