// On-disk format of the columnar release archive (`.ldpa` files).
//
// An archive is an append-only store of everything a curator ever
// published: fixed-window / categorical / cumulative release histograms
// (one int64 column per release) and synthetic cohort panels (bit-packed
// round columns — the on-disk twin of data::RoundView). Because it holds
// only released, post-DP values, the file can be shared and served freely:
// every query over it is pure post-processing.
//
// Layout (all integers little-endian; enforced by a static_assert below):
//
//   [header 16B]  u64 magic "LDPARCH1", u32 version, u32 reserved
//   [payload blocks ...]   each 8-byte aligned, zero-padded between blocks
//   [footer]      dictionary (label strings) + entry index, variable length
//   [tail 24B]    u64 footer_offset, u32 footer_crc32c, u32 version,
//                 u64 magic
//
// Payloads are raw columns: int64 arrays for histogram/threshold releases,
// and rounds() x words_per_round packed uint64 words for cohorts (round-
// major, matching LongitudinalDataset's storage), so a reader can mmap the
// file and serve word-level kernels with zero deserialization. Every
// payload and the footer carry a CRC32C (reusing src/persist/'s Castagnoli
// implementation); a reader verifies all of them at open and reports
// damage as kDataLoss, the durable-state layer's "stop and page a human"
// code. The fixed-size tail at EOF means appending is cheap: truncate the
// old footer+tail, append blocks, rewrite footer+tail.

#ifndef LONGDP_ARCHIVE_FORMAT_H_
#define LONGDP_ARCHIVE_FORMAT_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace longdp {
namespace archive {

// The mmap reader casts payload bytes straight to int64/uint64 columns, so
// the in-memory and on-disk byte orders must agree. Every deployment target
// (x86-64, aarch64 Linux) is little-endian; fail the build loudly anywhere
// else rather than silently writing incompatible files.
static_assert(std::endian::native == std::endian::little,
              "the archive format requires a little-endian host");

/// "LDPARCH1" read as a little-endian u64.
inline constexpr uint64_t kMagic = 0x3148'4352'4150'444cULL;
inline constexpr uint32_t kFormatVersion = 1;
inline constexpr size_t kHeaderBytes = 16;
inline constexpr size_t kTailBytes = 24;
/// An empty footer still encodes two u32 counts.
inline constexpr size_t kMinFooterBytes = 8;
inline constexpr size_t kBlockAlign = 8;

/// What a stored column is. Values are part of the on-disk format.
enum class EntryKind : uint8_t {
  kWindow = 1,       ///< fixed-window synthetic histogram (2^k int64s)
  kCumulative = 2,   ///< monotonized threshold row Shat^t (int64s)
  kCategorical = 3,  ///< base-A window histogram (A^k int64s)
  kCohort = 4,       ///< bit-packed synthetic panel (rounds x wpr u64 words)
};

/// One footer index record describing a stored column.
struct ArchiveEntry {
  EntryKind kind = EntryKind::kWindow;
  uint32_t label_id = 0;  ///< dictionary code of the release-stream label
  int64_t t = 0;          ///< release time (0 for cohorts)
  int window_k = 0;       ///< window width k (window/categorical)
  int alphabet = 0;       ///< alphabet size A (categorical only, else 0)
  int64_t npad = 0;       ///< public per-bin padding (window/categorical)
  int64_t true_n = 0;     ///< public true population size n
  /// Histogram/threshold kinds: number of int64 values. Cohorts: number of
  /// synthetic records (64 packed per word per round).
  int64_t count = 0;
  int64_t rounds = 0;  ///< cohort only: rounds of history; 0 otherwise
  uint64_t offset = 0;  ///< payload byte offset from file start (8-aligned)
  uint64_t bytes = 0;   ///< payload byte length
  uint32_t crc32c = 0;  ///< CRC32C of the payload bytes
};

/// Packed words per cohort round for `num_records` records.
inline size_t CohortWordsPerRound(int64_t num_records) {
  return static_cast<size_t>((static_cast<uint64_t>(num_records) + 63) >> 6);
}

/// The byte length AppendBlock must have written for this entry's
/// (kind, count, rounds); readers reject entries whose `bytes` disagree.
/// DataLoss if that length does not fit in 64 bits.
Result<uint64_t> ExpectedPayloadBytes(const ArchiveEntry& entry);

std::string EncodeHeader();
std::string EncodeTail(uint64_t footer_offset, uint32_t footer_crc);
std::string EncodeFooter(const std::vector<std::string>& labels,
                         const std::vector<ArchiveEntry>& entries);

/// Parses a footer previously produced by EncodeFooter. Purely structural
/// validation (bounds-checked decode, known kinds, label ids in range,
/// non-negative sizes, bytes == ExpectedPayloadBytes); file-level checks
/// (offsets inside the payload region, payload CRCs) are the reader's job.
/// Any malformation is kDataLoss: the footer CRC already matched, so a
/// parse failure means a writer bug or damage the checksum missed.
Status DecodeFooter(std::string_view footer, std::vector<std::string>* labels,
                    std::vector<ArchiveEntry>* entries);

}  // namespace archive
}  // namespace longdp

#endif  // LONGDP_ARCHIVE_FORMAT_H_
