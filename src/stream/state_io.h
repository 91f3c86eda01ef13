// Binary checkpoint codec of the synthesizers' SaveCheckpoint /
// LoadCheckpoint. Stream counters have no codec of their own: their state
// is rebuilt from the inputs a checkpoint stores (stream/counter_bank.h).
//
// Every field is little-endian and fixed-width, written straight from the
// in-memory layout and read straight back into it:
//
//   int, seed     8 bytes (int64, uint64)
//   double        8 bytes: the raw IEEE-754 bits, so every value (the
//                 infinities included) round-trips bit-exactly
//   array         the elements back to back; its length is implied by
//                 values already read (n, t, k, the horizon)
//   bit plane     ceil(n/64) uint64 words, bit i at word i/64, position
//                 i%64 (data::RoundView's layout); bits past n must be 0
//   tag           8 ASCII bytes read as one uint64 (end-of-format words)
//
// A format opens with a text magic line ("longdp-<family>-checkpoint-vN"),
// so an older version is refused by name, and closes with a tag.
//
// Hostile input: a payload is untrusted bytes. Every count is checked
// against a bound the reader already trusts before it is used, and bulk
// arrays grow one slice at a time as bytes actually arrive, so a forged
// count costs at most one slice of memory before the read runs off the end
// of the input. Every short read is InvalidArgument.

#ifndef LONGDP_STREAM_STATE_IO_H_
#define LONGDP_STREAM_STATE_IO_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace longdp {
namespace stream {
namespace state_io {

// Fields are written from memory as-is; every supported host (x86-64,
// aarch64 Linux) is little-endian. Fail the build anywhere else.
static_assert(std::endian::native == std::endian::little,
              "the checkpoint format requires a little-endian host");

/// Bulk reads grow their destination at most this many bytes ahead of the
/// bytes already read.
inline constexpr size_t kSliceBytes = size_t{1} << 20;

/// Populations, padding and rebuilt synthetic cohorts are capped below
/// 2^32 records (SaveCheckpoint refuses larger ones), so every count
/// derived from one stays far inside int64, and a record count times a
/// window width (k <= 64) inside size_t.
inline constexpr int64_t kMaxRecords = (int64_t{1} << 32) - 1;
static_assert(static_cast<uint64_t>(kMaxRecords) <= SIZE_MAX / 64);

/// Eight ASCII characters as one little-endian word.
constexpr uint64_t Tag(const char (&text)[9]) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(text[i]);
  }
  return v;
}

template <typename T>
void WriteArray(std::ostream& out, const T* data, size_t count) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(count * sizeof(T)));
}

/// Reads exactly `count` elements into caller-owned storage.
template <typename T>
Status ReadArray(std::istream& in, T* data, size_t count) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto bytes = static_cast<std::streamsize>(count * sizeof(T));
  in.read(reinterpret_cast<char*>(data), bytes);
  if (in.gcount() != bytes) {
    return Status::InvalidArgument("truncated state");
  }
  return Status::OK();
}

/// Replaces *v with `count` elements read from `in`, growing it one slice
/// at a time: memory follows the bytes present, never the count alone.
template <typename T>
Status ReadVector(std::istream& in, uint64_t count, std::vector<T>* v) {
  v->clear();
  const size_t slice = kSliceBytes / sizeof(T);
  while (v->size() < count) {
    const size_t old = v->size();
    const size_t step = static_cast<size_t>(
        std::min<uint64_t>(slice, count - static_cast<uint64_t>(old)));
    v->resize(old + step);
    LONGDP_RETURN_NOT_OK(ReadArray(in, v->data() + old, step));
  }
  return Status::OK();
}

/// Replaces *v with `count` counts read from `in`, rejecting a negative
/// one or a total past `max_total` — a census a cohort is rebuilt from is
/// bounded before anything is sized by it.
inline Status ReadBoundedCounts(std::istream& in, uint64_t count,
                                int64_t max_total, std::vector<int64_t>* v,
                                const std::string& what) {
  LONGDP_RETURN_NOT_OK(ReadVector(in, count, v));
  int64_t total = 0;
  for (int64_t c : *v) {
    if (c < 0 || c > max_total - total) {
      return Status::InvalidArgument(what + " out of range");
    }
    total += c;
  }
  return Status::OK();
}

inline void WriteInt(std::ostream& out, int64_t v) { WriteArray(out, &v, 1); }
/// Seeds.
inline void WriteU64(std::ostream& out, uint64_t v) { WriteArray(out, &v, 1); }
inline void WriteDouble(std::ostream& out, double v) {
  WriteArray(out, &v, 1);
}

/// One fixed-width field: an int64, a uint64 (seeds), or a double.
template <typename T>
Result<T> Read(std::istream& in) {
  T v{};
  LONGDP_RETURN_NOT_OK(ReadArray(in, &v, 1));
  return v;
}

/// Reads an int and rejects it unless lo <= v <= hi.
inline Result<int64_t> ReadIntIn(std::istream& in, int64_t lo, int64_t hi,
                                 const std::string& what) {
  LONGDP_ASSIGN_OR_RETURN(const int64_t v, Read<int64_t>(in));
  if (v < lo || v > hi) {
    return Status::InvalidArgument(what + " out of range in state: " +
                                   std::to_string(v));
  }
  return v;
}

/// Short names (counter and budget-split names): an 8-byte length, then
/// the bytes.
inline void WriteString(std::ostream& out, const std::string& s) {
  WriteInt(out, static_cast<int64_t>(s.size()));
  WriteArray(out, s.data(), s.size());
}

inline Result<std::string> ReadString(std::istream& in) {
  LONGDP_ASSIGN_OR_RETURN(const int64_t size,
                          ReadIntIn(in, 0, 64, "name length"));
  std::string s(static_cast<size_t>(size), '\0');
  LONGDP_RETURN_NOT_OK(ReadArray(in, s.data(), s.size()));
  return s;
}

/// A bit plane of n lanes: ceil(n/64) words.
inline void WritePlane(std::ostream& out, const std::vector<uint64_t>& words) {
  WriteArray(out, words.data(), words.size());
}

/// Reads a bit plane of n lanes into *words, rejecting set bits past lane
/// n (the packing invariant every word kernel relies on).
inline Status ReadPlane(std::istream& in, int64_t n,
                        std::vector<uint64_t>* words) {
  const uint64_t num_words = (static_cast<uint64_t>(n) + 63) >> 6;
  LONGDP_RETURN_NOT_OK(ReadVector(in, num_words, words));
  if ((n & 63) != 0 && (words->back() >> (n & 63)) != 0) {
    return Status::InvalidArgument("bit plane has bits past its lanes");
  }
  return Status::OK();
}

inline void WriteTag(std::ostream& out, uint64_t tag) {
  WriteArray(out, &tag, 1);
}

/// Consumes a tag word. Sentinels close every format, so a payload cut
/// exactly at a field boundary still fails to load.
inline Status ExpectTag(std::istream& in, uint64_t tag,
                        const std::string& what) {
  const Result<uint64_t> got = Read<uint64_t>(in);
  if (!got.ok()) {
    return Status::InvalidArgument("truncated " + what +
                                   ": missing end sentinel");
  }
  if (got.value() != tag) {
    return Status::InvalidArgument("corrupt " + what + ": bad end sentinel");
  }
  return Status::OK();
}

/// Whole-payload loaders call this after the final tag: bytes past it (a
/// concatenated second checkpoint, appended garbage) are an error for a
/// payload that is supposed to BE one checkpoint.
inline Status ExpectEnd(std::istream& in, const std::string& what) {
  if (in.peek() != std::char_traits<char>::eof()) {
    return Status::InvalidArgument("trailing bytes after " + what);
  }
  return Status::OK();
}

/// The magic line opening a checkpoint of `family` at `version`.
inline std::string Magic(const std::string& family, int version) {
  return "longdp-" + family + "-checkpoint-v" + std::to_string(version);
}

inline void WriteMagic(std::ostream& out, const std::string& family,
                       int version) {
  out << Magic(family, version) << '\n';
}

/// Consumes the magic line. A line naming another version of the same
/// family is "unsupported ... version" (a real checkpoint this build
/// cannot restore); anything else is "not a ... checkpoint".
inline Status ExpectMagic(std::istream& in, const std::string& family,
                          int version) {
  const std::string magic = Magic(family, version) + '\n';
  std::string got(magic.size(), '\0');
  in.read(got.data(), static_cast<std::streamsize>(got.size()));
  got.resize(static_cast<size_t>(in.gcount()));
  if (got == magic) return Status::OK();
  const std::string prefix = "longdp-" + family + "-checkpoint-v";
  if (got.compare(0, prefix.size(), prefix) == 0) {
    got = got.substr(0, got.find('\n'));
    for (char& c : got) {
      if (c < 0x20 || c > 0x7e) c = '?';
    }
    return Status::InvalidArgument("unsupported " + family +
                                   " checkpoint version '" + got +
                                   "'; this build reads " +
                                   Magic(family, version));
  }
  return Status::InvalidArgument("not a " + family + " checkpoint");
}

}  // namespace state_io
}  // namespace stream
}  // namespace longdp

#endif  // LONGDP_STREAM_STATE_IO_H_
