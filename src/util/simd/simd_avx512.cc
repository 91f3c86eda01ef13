// AVX-512 backend: 8 x uint64 lanes per vector. Requires F+DQ+BW+VL — DQ
// for the native 64-bit multiply-low (vpmullq), BW for the byte shuffle and
// SAD in the popcount. Compiled with the matching -m flags (see
// src/util/CMakeLists.txt); only executed when the runtime probe saw all
// four features.

#include "util/simd/simd_internal.h"

#if LONGDP_SIMD_X86

#if !defined(__AVX512F__) || !defined(__AVX512DQ__) || \
    !defined(__AVX512BW__) || !defined(__AVX512VL__)
#error "simd_avx512.cc must be compiled with -mavx512{f,dq,bw,vl}"
#endif

// GCC 12's AVX-512 intrinsics (_mm512_srli_epi64, _mm512_andnot_si512,
// _mm512_broadcast_i32x4, the extracts inside _mm512_reduce_add_epi64)
// pass _mm512_undefined_epi32() as the unused merge source of their masked
// builtins, and that function self-initializes (`__m512i __Y = __Y;`).
// Inlined here, -Wmaybe-uninitialized reports every such __Y, although the
// all-ones mask never reads it. The suppression covers this translation
// unit only (the intrinsic headers are first included here) and is popped
// at its end.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <immintrin.h>

#include "util/simd/simd_kernels.h"

namespace longdp {
namespace util {
namespace simd {
namespace internal {
namespace {

struct Avx512Traits {
  using V = __m512i;
  static constexpr size_t kWords = 8;
  static V Load(const uint64_t* p) { return _mm512_loadu_si512(p); }
  static void Store(uint64_t* p, V v) { _mm512_storeu_si512(p, v); }
  static V Set1(uint64_t x) {
    return _mm512_set1_epi64(static_cast<long long>(x));
  }
  static V Ones() { return _mm512_set1_epi64(-1); }
  static V And(V a, V b) { return _mm512_and_si512(a, b); }
  static V AndNot(V a, V b) { return _mm512_andnot_si512(a, b); }
  static V Xor(V a, V b) { return _mm512_xor_si512(a, b); }
  static V Add(V a, V b) { return _mm512_add_epi64(a, b); }
  static bool IsZero(V v) { return _mm512_test_epi64_mask(v, v) == 0; }

  static uint64_t PopcountSum(V v) {
    // Same nibble-LUT scheme as AVX2, one 512-bit lane pass; VPOPCNTDQ is
    // deliberately not assumed (it is absent on most AVX-512 parts we run
    // on, e.g. Skylake-SP).
    const __m512i lut = _mm512_broadcast_i32x4(_mm_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
    const __m512i low = _mm512_set1_epi8(0x0F);
    const __m512i lo = _mm512_and_si512(v, low);
    const __m512i hi = _mm512_and_si512(_mm512_srli_epi16(v, 4), low);
    const __m512i cnt = _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo),
                                        _mm512_shuffle_epi8(lut, hi));
    const __m512i sums = _mm512_sad_epu8(cnt, _mm512_setzero_si512());
    return static_cast<uint64_t>(_mm512_reduce_add_epi64(sums));
  }

  static V SplitMixFinalize(V z) {
    z = _mm512_mullo_epi64(Xor(z, _mm512_srli_epi64(z, 30)),
                           Set1(0xBF58476D1CE4E5B9ULL));
    z = _mm512_mullo_epi64(Xor(z, _mm512_srli_epi64(z, 27)),
                           Set1(0x94D049BB133111EBULL));
    return Xor(z, _mm512_srli_epi64(z, 31));
  }
};

}  // namespace

const Backend kAvx512Backend = {
    &FillStreamWordsT<Avx512Traits>,
    &PlaneHistogramT<Avx512Traits>,
    &PlaneAddT<Avx512Traits>,
};

}  // namespace internal
}  // namespace simd
}  // namespace util
}  // namespace longdp

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // LONGDP_SIMD_X86
