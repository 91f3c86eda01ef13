// Keyed counter-based RNG substreams — the library's production engine.
//
// A substream is a pair (key, cursor). The word stream is the stateless
// SplitMix64-keyed block function
//
//   word(key, i) = SplitMix64Finalize(key + (i + 1) * gamma)
//
// i.e. exactly the SplitMix64 output sequence whose initial state is `key`,
// evaluated by random access instead of by mutating shared state. Keys are
// derived, never chosen: starting from a user seed, every randomized
// component hashes its coordinates into the key via distinct-salt SplitMix64
// finalizer rounds:
//
//   root   = (seed, purpose)                   SubstreamRng(seed, purpose)
//   child  = parent key  #  value              Derive(value)   (round, shard)
//   leaf   = parent key  #  index              Leaf(index)     (bin, level)
//
// so the draw at (seed, purpose, round, bin, draw-index) is one pure
// function evaluation, independent of every other draw in the system. That
// is what makes releases bit-identical across shard and thread counts by
// construction: no draw order exists to perturb — only addresses.
//
// Draw-index discipline: the cursor advances by exactly one per Next() word
// consumed, and every helper on the Rng surface consumes a documented
// number of words (see util/rng.h and util/batch_sampler.h). No checkpoint
// stores a cursor: keys re-derive from the construction parameters, and a
// restore re-runs the draws (stream counters replay their stored input),
// so every cursor is reproduced rather than persisted. dp::NoiseSampler
// reads and advances cursor() / set_cursor() around its chunked reads.
//
// SubstreamRng is the one engine behind the util::Rng word-source surface:
// the sampling algorithms (UniformInt, discrete Gaussian chains,
// BatchSampler's Lemire rejection, ...) consume it through Rng, so a
// different engine (e.g. a CSPRNG) could be swapped in without touching
// them.

#ifndef LONGDP_UTIL_SUBSTREAM_H_
#define LONGDP_UTIL_SUBSTREAM_H_

#include <cstdint>

#include "util/rng.h"

namespace longdp {
namespace util {

namespace substream {

/// Purpose labels: the first derivation step under the seed. Every
/// independent consumer of randomness gets its own purpose so no two
/// components can collide on a key even when they use equal round/bin
/// coordinates.
inline constexpr uint64_t kGeneric = 0;         ///< tests, examples, misc
inline constexpr uint64_t kDataset = 1;         ///< synthetic data generators
inline constexpr uint64_t kCounterNoise = 2;    ///< stream counter noise
inline constexpr uint64_t kHistogramNoise = 3;  ///< per-bin histogram noise
inline constexpr uint64_t kSelection = 4;       ///< stage-2 record selection
inline constexpr uint64_t kRounding = 5;        ///< randomized rounding
inline constexpr uint64_t kCohort = 6;          ///< cohort advance shuffles
inline constexpr uint64_t kLocal = 7;           ///< local-model reports
inline constexpr uint64_t kRepetition = 8;      ///< harness repetitions

}  // namespace substream

class SubstreamRng final : public Rng {
 public:
  /// Root substream for (seed, purpose). Purposes are the substream::k*
  /// constants; kGeneric is for code (tests, examples) with no coordinate
  /// structure to express.
  explicit SubstreamRng(uint64_t seed,
                        uint64_t purpose = substream::kGeneric);

  /// Child substream keyed by `value` (a round number, shard index, ...).
  /// Independent of this stream's cursor: deriving is addressing, not
  /// drawing.
  SubstreamRng Derive(uint64_t value) const;

  /// Sibling-space child keyed by `index` (a histogram bin, tree level,
  /// record id, ...). Same mechanics as Derive under a distinct salt, so
  /// Derive(i) and Leaf(i) never alias.
  SubstreamRng Leaf(uint64_t index) const;

  /// A child substream keyed by the next word of this stream (consumes one
  /// draw). For call sites that need an unbounded number of children and
  /// have no natural index.
  SubstreamRng ForkSubstream();

  /// The keyed block function: word(key, cursor++).
  uint64_t Next() override;

  /// Bulk word generation through the util/simd layer: identical sequence
  /// and cursor advance to `count` Next() calls, several words per cycle on
  /// vector backends (the block function is random-access, so whole chunks
  /// are evaluated with no serial dependence).
  void FillWords(uint64_t* out, size_t count) override;

  uint64_t key() const { return key_; }
  /// Number of words consumed so far — the stream position.
  uint64_t cursor() const { return cursor_; }
  void set_cursor(uint64_t cursor) { cursor_ = cursor; }

  /// Rebuilds a substream from persisted (key, cursor) state.
  static SubstreamRng FromState(uint64_t key, uint64_t cursor);

 private:
  struct RawKeyTag {};
  SubstreamRng(RawKeyTag, uint64_t key) : key_(key), cursor_(0) {}

  uint64_t key_;
  uint64_t cursor_;
};

}  // namespace util
}  // namespace longdp

#endif  // LONGDP_UTIL_SUBSTREAM_H_
