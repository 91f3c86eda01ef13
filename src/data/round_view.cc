#include "data/round_view.h"

#include <cstring>
#include <string>

namespace longdp {
namespace data {

namespace {

constexpr uint64_t kLowBits = 0x0101010101010101ull;
constexpr uint64_t kHighBits = 0x8080808080808080ull;
/// Multiplying the low bit of each byte (x & kLowBits) by this gathers
/// byte i's bit into bit 56 + i: the partial products land at 8i + 7m for
/// m = 1..8, all distinct, so nothing carries.
constexpr uint64_t kGather = 0x0102040810204080ull;

/// Eight symbols as one word, byte i of the word being symbols[i] (the
/// host is little-endian, see stream/state_io.h).
uint64_t Load8(const uint8_t* symbols) {
  uint64_t x;
  std::memcpy(&x, symbols, sizeof(x));
  return x;
}

/// The last `count` (< 8) symbols, zero-padded; zero is below every limit.
uint64_t LoadTail(const uint8_t* symbols, int64_t count) {
  uint64_t x = 0;
  std::memcpy(&x, symbols, static_cast<size_t>(count));
  return x;
}

/// Slices whole words [0, num_words) of symbols into num_planes planes;
/// symbols must hold 64 * num_words bytes. Per plane, each group of eight
/// symbols becomes one byte of the plane word.
void SliceWords(const uint8_t* symbols, int64_t num_words, int num_planes,
                uint64_t* const* planes) {
  for (int64_t w = 0; w < num_words; ++w) {
    const uint8_t* word = symbols + 64 * w;
    for (int p = 0; p < num_planes; ++p) {
      uint64_t acc = 0;
      for (int g = 0; g < 8; ++g) {
        const uint64_t x = Load8(word + 8 * g);
        acc |= ((((x >> p) & kLowBits) * kGather) >> 56) << (8 * g);
      }
      planes[p][w] = acc;
    }
  }
}

}  // namespace

Status CheckSymbols(const uint8_t* symbols, int64_t n, int limit) {
  if (limit >= 256) return Status::OK();
  // Byte v of x is >= limit exactly when the high bit of the same byte of
  // over(x) is set. For limit <= 128: v's low seven bits plus 128 - limit
  // reach 128, or v has its high bit set. For limit > 128: v has its high
  // bit set and its low seven bits plus 256 - limit reach 128. No byte sum
  // exceeds 254, so no carry crosses a byte.
  const bool small = limit <= 128;
  const uint64_t add =
      static_cast<uint64_t>(small ? 128 - limit : 256 - limit) * kLowBits;
  const auto over = [&](uint64_t x) {
    const uint64_t sum = (x & ~kHighBits) + add;
    return small ? (sum | x) : (sum & x);
  };
  uint64_t bad = 0;
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) bad |= over(Load8(symbols + i));
  if (i < n) bad |= over(LoadTail(symbols + i, n - i));
  if ((bad & kHighBits) != 0) {
    return Status::InvalidArgument(
        limit == 2 ? std::string("round entries must be 0 or 1")
                   : "symbols must be below " + std::to_string(limit));
  }
  return Status::OK();
}

void SliceSymbols(const uint8_t* symbols, int64_t n, int num_planes,
                  uint64_t* const* planes) {
  const int64_t full = n >> 6;
  SliceWords(symbols, full, num_planes, planes);
  if ((n & 63) == 0) return;
  // The partial last word: its symbols copied into a zero-filled block.
  uint8_t block[64] = {};
  std::memcpy(block, symbols + 64 * full, static_cast<size_t>(n & 63));
  uint64_t* tail[8];
  for (int p = 0; p < num_planes; ++p) tail[p] = planes[p] + full;
  SliceWords(block, 1, num_planes, tail);
}

Status PackedRound::Assign(const std::vector<uint8_t>& bits) {
  const int64_t n = static_cast<int64_t>(bits.size());
  LONGDP_RETURN_NOT_OK(CheckSymbols(bits.data(), n, 2));
  words_.resize(static_cast<size_t>((n + 63) >> 6));
  uint64_t* plane = words_.data();
  SliceSymbols(bits.data(), n, 1, &plane);
  num_bits_ = n;
  return Status::OK();
}

}  // namespace data
}  // namespace longdp
