// Bit-packed round representation: one 0/1 report per individual, packed 64
// per uint64_t word (bit i of the round lives at word i/64, position i%64).
//
// RoundView is the non-owning, trivially-copyable handle the observe hot
// paths consume. Word-level access is what removes the byte-per-bit column
// scans: counting a round is popcount over n/64 words, and iterating the
// set bits (the only records stage 1 of the cumulative synthesizer touches)
// is a countr_zero loop that skips zero words entirely.
//
// PackedRound owns a packed buffer and is the validation boundary: Assign
// rejects any byte other than 0/1 before a single bit is published, so a
// RoundView is 0/1-clean by construction and downstream code never
// re-validates. Trailing bits past size() in the last word are always zero
// (CountOnes and word-level consumers rely on it).
//
// CheckSymbols and SliceSymbols are the packer behind Assign, generalized
// to small alphabets: a round of byte symbols becomes b bit planes in the
// same layout (plane p holds bit p of every symbol), which is how the
// categorical window synthesizer stores its rounds.

#ifndef LONGDP_DATA_ROUND_VIEW_H_
#define LONGDP_DATA_ROUND_VIEW_H_

#include <bit>
#include <concepts>
#include <cstdint>
#include <vector>

#include "util/status.h"

namespace longdp {
namespace data {

class RoundView {
 public:
  RoundView() = default;
  /// `words` must hold (num_bits + 63) / 64 entries and stay alive for the
  /// lifetime of the view; bits past num_bits in the last word must be 0.
  /// An integer never binds to `words`, so a braced byte round such as
  /// {0, 1} selects a byte overload instead of being ambiguous with this.
  template <typename P>
    requires std::convertible_to<P, const uint64_t*> && (!std::integral<P>)
  RoundView(P words, int64_t num_bits) : words_(words), num_bits_(num_bits) {}

  int64_t size() const { return num_bits_; }
  const uint64_t* words() const { return words_; }
  size_t num_words() const {
    return static_cast<size_t>((num_bits_ + 63) >> 6);
  }

  /// Bit `i` (0-based), 0 or 1.
  int bit(int64_t i) const {
    return static_cast<int>((words_[i >> 6] >> (i & 63)) & 1);
  }

  /// Number of 1-bits in the round.
  int64_t CountOnes() const {
    int64_t ones = 0;
    const size_t nw = num_words();
    for (size_t w = 0; w < nw; ++w) ones += std::popcount(words_[w]);
    return ones;
  }

  /// Invokes fn(i) for every set bit i in [begin, end), in increasing
  /// order. Zero words are skipped with no per-bit work.
  template <typename Fn>
  void ForEachOneInRange(int64_t begin, int64_t end, Fn&& fn) const {
    if (begin >= end) return;
    const int64_t w_first = begin >> 6;
    const int64_t w_last = (end - 1) >> 6;
    for (int64_t w = w_first; w <= w_last; ++w) {
      uint64_t word = words_[w];
      if (w == w_first) word &= ~uint64_t{0} << (begin & 63);
      if (w == w_last && (end & 63) != 0) {
        word &= ~uint64_t{0} >> (64 - (end & 63));
      }
      while (word != 0) {
        fn((w << 6) + std::countr_zero(word));
        word &= word - 1;
      }
    }
  }

  /// Invokes fn(i) for every set bit i, in increasing order.
  template <typename Fn>
  void ForEachOne(Fn&& fn) const {
    ForEachOneInRange(0, num_bits_, fn);
  }

 private:
  const uint64_t* words_ = nullptr;
  int64_t num_bits_ = 0;
};

/// InvalidArgument unless every one of the n symbols is below `limit`
/// (1 <= limit <= 256). Reads 8 bytes per step and writes nothing, so a
/// caller can validate a round before any of its state changes.
Status CheckSymbols(const uint8_t* symbols, int64_t n, int limit);

/// Bit-slices n symbols into `num_planes` (1..8) packed planes: bit p of
/// symbol i lands at bit i % 64 of planes[p][i / 64]. Each plane receives
/// exactly (n + 63) / 64 words, whole words, with the bits past lane n
/// zero. Symbol bits at or above num_planes are dropped, so callers check
/// the round with CheckSymbols first.
void SliceSymbols(const uint8_t* symbols, int64_t n, int num_planes,
                  uint64_t* const* planes);

class PackedRound {
 public:
  PackedRound() = default;

  /// Packs a byte-per-bit round, rejecting any entry other than 0 or 1
  /// (InvalidArgument, with the buffer left unchanged on failure). Reuses
  /// the word buffer's capacity across calls, so repacking every round of a
  /// stream allocates only on growth.
  Status Assign(const std::vector<uint8_t>& bits);

  static Result<PackedRound> FromBytes(const std::vector<uint8_t>& bits) {
    PackedRound round;
    LONGDP_RETURN_NOT_OK(round.Assign(bits));
    return round;
  }

  int64_t size() const { return num_bits_; }
  RoundView view() const { return RoundView(words_.data(), num_bits_); }

 private:
  std::vector<uint64_t> words_;
  int64_t num_bits_ = 0;
};

}  // namespace data
}  // namespace longdp

#endif  // LONGDP_DATA_ROUND_VIEW_H_
