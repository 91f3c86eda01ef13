#include "util/substream.h"

#include "util/simd/simd.h"

namespace longdp {
namespace util {

namespace {

constexpr uint64_t kGamma = 0x9E3779B97F4A7C15ULL;

// Distinct odd salts, one per derivation edge, so the key tree's edges
// (seed->root, root->purpose, Derive, Leaf) live in disjoint hash
// families: Derive(i) on one stream can never alias Leaf(i) on the same
// stream, and no purpose key can collide with a seed key.
constexpr uint64_t kSeedSalt = 0xA24BAED4963EE407ULL;
constexpr uint64_t kPurposeSalt = 0x9FB21C651E98DF25ULL;
constexpr uint64_t kDeriveSalt = 0xD1B54A32D192ED03ULL;
constexpr uint64_t kLeafSalt = 0x8CB92BA72F3D8DD7ULL;

// Two finalizer rounds: value is avalanched under its edge salt, folded
// into the parent key, then avalanched again so every child key bit
// depends on every (key, value, salt) bit.
inline uint64_t DeriveKey(uint64_t key, uint64_t value, uint64_t salt) {
  const uint64_t mixed = key ^ SplitMix64Finalize(value + salt);
  return SplitMix64Finalize(mixed + kGamma);
}

}  // namespace

uint64_t SplitMix64Finalize(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

SubstreamRng::SubstreamRng(uint64_t seed, uint64_t purpose)
    : key_(DeriveKey(DeriveKey(seed, seed, kSeedSalt), purpose,
                     kPurposeSalt)),
      cursor_(0) {}

SubstreamRng SubstreamRng::Derive(uint64_t value) const {
  return SubstreamRng(RawKeyTag{}, DeriveKey(key_, value, kDeriveSalt));
}

SubstreamRng SubstreamRng::Leaf(uint64_t index) const {
  return SubstreamRng(RawKeyTag{}, DeriveKey(key_, index, kLeafSalt));
}

uint64_t SubstreamRng::Next() {
  return SplitMix64Finalize(key_ + (++cursor_) * kGamma);
}

void SubstreamRng::FillWords(uint64_t* out, size_t count) {
  simd::FillStreamWords(key_, cursor_, out, count);
  cursor_ += count;
}

uint64_t SubstreamRng::UniformInt(uint64_t bound) {
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

double SubstreamRng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool SubstreamRng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

SubstreamRng SubstreamRng::FromState(uint64_t key, uint64_t cursor) {
  SubstreamRng out(RawKeyTag{}, key);
  out.cursor_ = cursor;
  return out;
}

}  // namespace util
}  // namespace longdp
