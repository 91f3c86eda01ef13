// Deterministic pseudo-random number generation for longdp.
//
// Every randomized component in the library draws from an explicitly passed
// util::Rng so that experiments are reproducible from a single seed. Rng is
// an abstract word source; the library's one engine behind it is
// util::SubstreamRng (util/substream.h), a keyed counter-based generator
// addressed by (seed, purpose, shard/round/level, draw index). All draws
// flow through substreams so that releases are bit-identical at any
// shard x thread count by construction.
//
// The word source (Next, FillWords) is pure virtual; the helpers below
// (UniformInt, UniformDouble, Bernoulli, Coin) are defined in terms of
// Next(), so the sampling algorithms are shared by anything plugged in
// behind the surface.
//
// NOTE ON PRIVACY: a cryptographically secure generator would be required for
// a production privacy deployment. This library is a research reproduction;
// the sampling *algorithms* (exact discrete Gaussian etc.) are
// production-grade, and Rng is the seam where a CSPRNG engine would be
// plugged in if one is needed.

#ifndef LONGDP_UTIL_RNG_H_
#define LONGDP_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>

namespace longdp {
namespace util {

/// The SplitMix64 output (finalizer) function: a fixed bijective 64-bit mix
/// with full avalanche. SubstreamRng's keyed block function and key
/// derivation are built from it.
uint64_t SplitMix64Finalize(uint64_t z);

/// \brief Abstract 64-bit word source with the library's sampling helpers.
class Rng {
 public:
  virtual ~Rng() = default;

  /// Next raw 64 bits.
  virtual uint64_t Next() = 0;

  /// Fills out[0..count) with the next `count` raw words — exactly the
  /// sequence `count` successive Next() calls would return, advancing the
  /// stream identically. Engines batch the word generation here
  /// (SubstreamRng routes through the util/simd layer).
  virtual void FillWords(uint64_t* out, size_t count) = 0;

  /// Uniform integer in [0, bound) without modulo bias. bound == 0 (an
  /// empty range) returns 0 without consuming a draw.
  uint64_t UniformInt(uint64_t bound);

  /// Uniform double in [0, 1) with 53 bits of precision.
  double UniformDouble();

  /// Bernoulli(p) for p in [0, 1].
  bool Bernoulli(double p);

  /// Fair coin.
  bool Coin() { return (Next() >> 63) != 0; }

 protected:
  Rng() = default;
  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;
};

}  // namespace util
}  // namespace longdp

#endif  // LONGDP_UTIL_RNG_H_
