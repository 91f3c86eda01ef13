// Bit-pattern helpers for length-k binary window patterns.
//
// A window pattern s = (s_1, ..., s_k), where s_1 is the OLDEST bit in the
// window and s_k the MOST RECENT, is encoded as the unsigned integer
//
//     code(s) = sum_j s_j << (k - j),
//
// i.e. the oldest bit is the most significant. Under this encoding the
// sliding-window transitions of Algorithm 1 become simple shifts:
//
//  * appending bit c to the overlap z (k-1 bits):  (z << 1) | c
//  * the overlap that pattern p hands to the next window: p & ((1<<(k-1))-1)
//  * "patterns ending in 0z / 1z": low k-1 bits equal z.

#ifndef LONGDP_UTIL_BITS_H_
#define LONGDP_UTIL_BITS_H_

// longdp is a C++20 codebase (bits.cc prefers std::popcount from <bit>, and
// other subsystems use C++20 library features freely). Fail loudly here, at
// the bottom of the include graph, so a toolchain configured for an older
// standard produces one actionable diagnostic instead of a template spew.
#if defined(_MSVC_LANG)
#if _MSVC_LANG < 202002L
#error "longdp requires C++20: compile with /std:c++20 (CMake sets this via CMAKE_CXX_STANDARD 20)"
#endif
#elif defined(__cplusplus) && __cplusplus < 202002L
#error "longdp requires C++20: compile with -std=c++20 (CMake sets this via CMAKE_CXX_STANDARD 20)"
#endif

#include <cstdint>
#include <string>

#include "util/status.h"

namespace longdp {
namespace util {

/// Pattern codes are 64-bit; windows up to k = 62 are supported (far beyond
/// the k <= ~20 regime where 2^k histograms are tractable).
using Pattern = uint64_t;

inline constexpr int kMaxWindow = 62;

/// Number of distinct patterns of width k, i.e. 2^k.
constexpr uint64_t NumPatterns(int k) { return uint64_t{1} << k; }

/// Mask with the low k bits set.
constexpr uint64_t LowMask(int k) { return (uint64_t{1} << k) - 1; }

/// Number of 1-bits in the pattern.
int Popcount(Pattern p);

/// Appends bit `c` to the k-wide pattern `p`, dropping the oldest bit:
/// result is again k bits wide.
constexpr Pattern SlideAppend(Pattern p, int k, int c) {
  return ((p << 1) | static_cast<Pattern>(c & 1)) & LowMask(k);
}

/// The (k-1)-bit overlap a k-bit pattern shares with the next window
/// (its k-1 most recent bits).
constexpr Pattern Overlap(Pattern p, int k) { return p & LowMask(k - 1); }

/// The most recent bit of the pattern.
constexpr int NewestBit(Pattern p) { return static_cast<int>(p & 1); }

/// The oldest bit of the k-wide pattern.
constexpr int OldestBit(Pattern p, int k) {
  return static_cast<int>((p >> (k - 1)) & 1);
}

/// The kp-bit suffix (most recent kp bits) of a k-wide pattern; kp <= k.
constexpr Pattern Suffix(Pattern p, int kp) { return p & LowMask(kp); }

/// Renders the pattern oldest-bit-first, e.g. k=3 code 0b011 -> "011".
std::string PatternToString(Pattern p, int k);

/// True iff the k-wide pattern contains a run of at least `run` consecutive
/// 1-bits. run >= 1.
bool HasOnesRun(Pattern p, int k, int run);

/// Validates a window width for histogram-based synthesis (1 <= k <= 30 so
/// that 2^k bins fit comfortably in memory); returns InvalidArgument
/// otherwise.
Status ValidateWindow(int k);

}  // namespace util
}  // namespace longdp

#endif  // LONGDP_UTIL_BITS_H_
