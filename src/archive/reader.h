// Analyst-side mmap reader. Open() maps the file read-only and verifies
// everything once — header/tail magic, footer CRC, footer structure, every
// payload CRC — so all accessors afterwards are infallible pointer math
// over the mapping: Values() hands back the int64 column in place and
// CohortRound() wraps a stored panel round in a zero-copy data::RoundView.
// Damage anywhere is kDataLoss at open; nothing is served from a file that
// does not fully verify.

#ifndef LONGDP_ARCHIVE_READER_H_
#define LONGDP_ARCHIVE_READER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "archive/format.h"
#include "core/release_log.h"
#include "data/round_view.h"
#include "util/status.h"

namespace longdp {
namespace archive {

class ArchiveReader {
 public:
  /// Maps and fully verifies an archive. NotFound for a missing file,
  /// InvalidArgument for a file that is not an archive at all (bad magic /
  /// too small), kDataLoss for an archive that is damaged or truncated.
  static Result<ArchiveReader> Open(const std::string& path);

  ArchiveReader(ArchiveReader&& other) noexcept;
  ArchiveReader& operator=(ArchiveReader&& other) noexcept;
  ArchiveReader(const ArchiveReader&) = delete;
  ArchiveReader& operator=(const ArchiveReader&) = delete;
  ~ArchiveReader();

  const std::string& path() const { return path_; }
  const std::vector<ArchiveEntry>& entries() const { return entries_; }
  const std::vector<std::string>& labels() const { return labels_; }
  const std::string& label(uint32_t id) const {
    return labels_[static_cast<size_t>(id)];
  }
  /// Dictionary code of `label`; NotFound if no entry carries it.
  Result<uint32_t> FindLabel(const std::string& label) const;

  /// Indices into entries() of the entries stored under label `id`, in
  /// append order; empty for an id outside the dictionary.
  std::span<const size_t> LabelEntries(uint32_t id) const {
    if (id >= labels_.size()) return {};
    return std::span<const size_t>(label_entries_)
        .subspan(label_starts_[id], label_starts_[id + 1] - label_starts_[id]);
  }

  /// The int64 column of a histogram/threshold entry, served in place from
  /// the mapping (entry must not be a cohort). Valid while the reader lives.
  std::span<const int64_t> Values(const ArchiveEntry& entry) const;

  /// Zero-copy view of round `t` (1-based, t <= entry.rounds) of a stored
  /// cohort panel. Trailing bits past entry.count are zero on disk (written
  /// from RoundView words, which guarantee it), so word-level kernels --
  /// popcount loops, PlaneHistogram -- run directly on the mapping.
  data::RoundView CohortRound(const ArchiveEntry& entry, int64_t t) const;

  /// Materializes an entry back into the in-memory release structs (the
  /// round-trip tests compare these field-for-field with what was
  /// captured). InvalidArgument on a kind mismatch.
  Result<core::WindowRelease> ToWindowRelease(const ArchiveEntry& entry) const;
  Result<core::CumulativeRelease> ToCumulativeRelease(
      const ArchiveEntry& entry) const;
  Result<core::CategoricalRelease> ToCategoricalRelease(
      const ArchiveEntry& entry) const;

  /// Rebuilds the full ReleaseLog stored under one label (entries in
  /// append order), equivalent to what ReleaseLog::LoadCsv would return
  /// from the CSV twin of the same stream.
  Result<core::ReleaseLog> ToReleaseLog(uint32_t label_id) const;

  /// Byte offset where the footer starts (== end of the payload region);
  /// OpenForAppend truncates here.
  uint64_t footer_offset() const { return footer_offset_; }

 private:
  ArchiveReader() = default;

  const char* base() const { return static_cast<const char*>(map_); }

  std::string path_;
  void* map_ = nullptr;
  size_t map_len_ = 0;
  uint64_t footer_offset_ = 0;
  std::vector<std::string> labels_;
  std::vector<ArchiveEntry> entries_;
  /// entries_ grouped by label, append order kept: label id's entry
  /// indices are label_entries_[label_starts_[id], label_starts_[id + 1]).
  std::vector<size_t> label_starts_;
  std::vector<size_t> label_entries_;
};

}  // namespace archive
}  // namespace longdp

#endif  // LONGDP_ARCHIVE_READER_H_
