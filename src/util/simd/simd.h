// Runtime-dispatched SIMD kernel layer (pgaccel-style trait dispatch).
//
// Three kernels back the hot loops of the noise path and the bit-plane
// synthesizer state:
//
//   * FillStreamWords — bulk evaluation of the SubstreamRng keyed block
//     function word(key, i) = SplitMix64Finalize(key + (i + 1) * gamma).
//     Every backend produces the exact word sequence the scalar engine
//     produces (the finalizer is pure integer arithmetic, so there is no
//     floating-point reassociation to diverge on).
//   * PlaneHistogram — histogram of b-bit codes stored bit-sliced across b
//     packed planes (plane j holds bit j of every lane's code, 64 lanes per
//     word), with an optional lane mask. Counts are exact integer popcounts,
//     so every backend and every word partition yields identical totals.
//   * PlaneAdd — bit-sliced ripple-carry increment: adds a packed 1-bit
//     addend to the b-plane codes in place. Pure bitwise logic, identical
//     across backends.
//
// Dispatch model: each backend (scalar, AVX2, AVX-512) is compiled in its
// own translation unit with the matching -m flags, instantiating the shared
// templated kernel bodies in simd_kernels.h over a per-ISA traits struct.
// One runtime CPU-feature probe (at first use) selects the backend; the
// entry points below forward through function pointers ever after.
//
// Determinism contract: all three kernels are bit-exact across backends by
// construction — integer-only arithmetic, no reassociation, no
// approximation. Forcing the scalar path (LONGDP_FORCE_SCALAR=1 in the
// environment, or the -DLONGDP_FORCE_SCALAR=ON build option) therefore
// never changes results, only speed; CI proves this by replaying the full
// golden/equivalence suites under the forced-scalar build.

#ifndef LONGDP_UTIL_SIMD_SIMD_H_
#define LONGDP_UTIL_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace longdp {
namespace util {
namespace simd {

/// Backend tiers in detection order (highest supported wins).
enum class IsaLevel {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,  ///< requires F + DQ + BW + VL
};

/// The backend selected for this process: the highest tier the CPU (and the
/// build) supports, unless the scalar path is forced. Decided once at first
/// call and stable thereafter.
IsaLevel ActiveIsaLevel();

/// Human-readable backend name ("scalar", "avx2", "avx512") for logs and
/// bench reports.
const char* IsaLevelName(IsaLevel level);

/// True when the scalar backend was forced: either the build was configured
/// with -DLONGDP_FORCE_SCALAR=ON or the environment variable
/// LONGDP_FORCE_SCALAR is set to anything other than "" or "0".
bool ScalarForced();

/// Most bit planes PlaneHistogram and PlaneAdd take: a code spans at most
/// 16 planes, so a histogram has at most 2^16 bins.
inline constexpr int kMaxPlanes = 16;

/// The horizon cap: at most 2^kMaxPlanes - 1 rounds, so a prefix Hamming
/// weight (at most the horizon) always fits kMaxPlanes planes. Datasets and
/// synthesizers refuse longer horizons (core/limits.h refers to it).
inline constexpr int64_t kMaxHorizon = (int64_t{1} << kMaxPlanes) - 1;

/// out[i] = SplitMix64Finalize(key + (cursor + 1 + i) * gamma) for
/// i in [0, count) — the next `count` words of the substream at (key,
/// cursor), without mutating any engine state. Matches
/// util::SubstreamRng::Next() word-for-word.
void FillStreamWords(uint64_t key, uint64_t cursor, uint64_t* out,
                     size_t count);

/// Accumulates (+=) into hist[v], for v in [0, 2^num_planes), the number of
/// lanes whose bit-sliced code equals v, over lanes [0, 64 * num_words).
/// planes[j] points at num_words packed words of bit j of the codes. When
/// `mask` is non-null only lanes with a 1 bit in mask are counted; when it
/// is null every lane counts, including any tail lanes past the logical
/// population size — those have all-zero planes by the packing invariant
/// (RoundView guarantees zero trailing bits), so the caller subtracts the
/// tail from hist[0]. hist must have 2^num_planes entries; num_planes <= kMaxPlanes.
void PlaneHistogram(const uint64_t* const* planes, int num_planes,
                    const uint64_t* mask, size_t num_words, int64_t* hist);

/// In-place bit-sliced add of a packed 1-bit addend to the b-plane codes:
/// for every lane with a 1 bit in `addend`, the lane's code across
/// planes[0..num_planes) is incremented. Ripple carry out of the top plane
/// is dropped; callers must size num_planes so the maximum code fits, and
/// num_planes <= kMaxPlanes.
void PlaneAdd(uint64_t* const* planes, int num_planes,
              const uint64_t* addend, size_t num_words);

}  // namespace simd
}  // namespace util
}  // namespace longdp

#endif  // LONGDP_UTIL_SIMD_SIMD_H_
