#include "util/bits.h"

#include <sstream>

// <version> itself is missing from the old standard libraries the portable
// fallback below targets, so probe for it before including.
#ifdef __has_include
#if __has_include(<version>)
#include <version>
#endif
#endif

#if defined(__cpp_lib_bitops) && __cpp_lib_bitops >= 201907L
#include <bit>
#define LONGDP_HAVE_STD_POPCOUNT 1
#endif

namespace longdp {
namespace util {

#if defined(LONGDP_HAVE_STD_POPCOUNT)
int Popcount(Pattern p) { return std::popcount(p); }
#else
// Portable fallback (Kernighan) for toolchains whose standard library does
// not ship <bit> bit operations yet; same contract as std::popcount.
int Popcount(Pattern p) {
  int n = 0;
  for (; p != 0; p &= p - 1) ++n;
  return n;
}
#endif

std::string PatternToString(Pattern p, int k) {
  std::string out(static_cast<size_t>(k), '0');
  for (int j = 0; j < k; ++j) {
    if ((p >> (k - 1 - j)) & 1) out[static_cast<size_t>(j)] = '1';
  }
  return out;
}

bool HasOnesRun(Pattern p, int k, int run) {
  if (run <= 0) return true;
  if (run > k) return false;
  int current = 0;
  for (int j = 0; j < k; ++j) {
    if ((p >> j) & 1) {
      if (++current >= run) return true;
    } else {
      current = 0;
    }
  }
  return false;
}

Status ValidateWindow(int k) {
  if (k < 1 || k > 30) {
    return Status::InvalidArgument(
        "window width k must be in [1, 30] for 2^k-bin histograms, got " +
        std::to_string(k));
  }
  return Status::OK();
}

}  // namespace util
}  // namespace longdp
