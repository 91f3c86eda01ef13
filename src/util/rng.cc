#include "util/rng.h"

namespace longdp {
namespace util {

uint64_t SplitMix64Finalize(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rng::UniformInt(uint64_t bound) {
  // The empty range has one representable answer; returning it (without
  // consuming a draw) beats the division-by-zero the rejection threshold
  // below would otherwise hit.
  if (bound == 0) return 0;
  // Lemire-style rejection to avoid modulo bias.
  uint64_t threshold = (-bound) % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

}  // namespace util
}  // namespace longdp
