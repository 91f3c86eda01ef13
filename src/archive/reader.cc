#include "archive/reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "persist/crc32c.h"
#include "persist/posix_io.h"

namespace longdp {
namespace archive {

namespace {

uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

Result<ArchiveReader> ArchiveReader::Open(const std::string& path) {
  LONGDP_ASSIGN_OR_RETURN(int fd, persist::OpenFd(path, O_RDONLY, 0));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("fstat failed for '" + path + "'");
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size < kHeaderBytes + kMinFooterBytes + kTailBytes) {
    ::close(fd);
    return Status::InvalidArgument("not a release archive (too small): " +
                                   path);
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping outlives the descriptor
  if (map == MAP_FAILED) {
    return Status::IOError("mmap failed for '" + path + "'");
  }
  ArchiveReader reader;
  reader.path_ = path;
  reader.map_ = map;
  reader.map_len_ = size;

  const char* base = reader.base();
  if (LoadU64(base) != kMagic) {
    return Status::InvalidArgument("not a release archive (bad magic): " +
                                   path);
  }
  if (LoadU32(base + 8) != kFormatVersion) {
    return Status::InvalidArgument(
        "unsupported archive format version " +
        std::to_string(LoadU32(base + 8)) + ": " + path);
  }
  // Tail: written last, fsynced — a file without a valid one was never
  // sealed (or was cut short), so nothing after the header can be trusted.
  const char* tail = base + size - kTailBytes;
  if (LoadU64(tail + 16) != kMagic || LoadU32(tail + 12) != kFormatVersion) {
    return Status::DataLoss("archive tail missing or corrupt (unsealed or "
                            "truncated file): " +
                            path);
  }
  const uint64_t footer_offset = LoadU64(tail);
  if (footer_offset < kHeaderBytes ||
      footer_offset > size - kTailBytes - kMinFooterBytes) {
    return Status::DataLoss("archive footer offset out of bounds: " + path);
  }
  const size_t footer_len = size - kTailBytes - footer_offset;
  const char* footer = base + footer_offset;
  if (persist::Crc32c(footer, footer_len) != LoadU32(tail + 8)) {
    return Status::DataLoss("archive footer checksum mismatch: " + path);
  }
  LONGDP_RETURN_NOT_OK(DecodeFooter(std::string_view(footer, footer_len),
                                    &reader.labels_, &reader.entries_));
  reader.footer_offset_ = footer_offset;

  // Whole-file payload sweep: every column must verify before anything is
  // served. (Opening touches every page once; queries afterwards are pure
  // reads with no checks on the hot path.)
  for (size_t i = 0; i < reader.entries_.size(); ++i) {
    const ArchiveEntry& e = reader.entries_[i];
    // Compared without adding: a forged offset + bytes may wrap.
    if (e.offset % kBlockAlign != 0 || e.offset < kHeaderBytes ||
        e.offset > footer_offset || e.bytes > footer_offset - e.offset) {
      return Status::DataLoss("archive entry " + std::to_string(i) +
                              " payload out of bounds: " + path);
    }
    if (persist::Crc32c(base + e.offset, e.bytes) != e.crc32c) {
      return Status::DataLoss("archive entry " + std::to_string(i) +
                              " payload checksum mismatch: " + path);
    }
  }
  // Group the index by label (a counting sort, so each label keeps its
  // append order): a label-filtered query then visits that label's
  // entries only, not the whole index.
  const size_t num_labels = reader.labels_.size();
  reader.label_starts_.assign(num_labels + 1, 0);
  for (const ArchiveEntry& e : reader.entries_) {
    ++reader.label_starts_[size_t{e.label_id} + 1];
  }
  for (size_t id = 0; id < num_labels; ++id) {
    reader.label_starts_[id + 1] += reader.label_starts_[id];
  }
  std::vector<size_t> next(reader.label_starts_.begin(),
                           reader.label_starts_.end() - 1);
  reader.label_entries_.resize(reader.entries_.size());
  for (size_t i = 0; i < reader.entries_.size(); ++i) {
    reader.label_entries_[next[reader.entries_[i].label_id]++] = i;
  }
  return reader;
}

ArchiveReader::ArchiveReader(ArchiveReader&& other) noexcept
    : path_(std::move(other.path_)),
      map_(std::exchange(other.map_, nullptr)),
      map_len_(std::exchange(other.map_len_, 0)),
      footer_offset_(other.footer_offset_),
      labels_(std::move(other.labels_)),
      entries_(std::move(other.entries_)),
      label_starts_(std::move(other.label_starts_)),
      label_entries_(std::move(other.label_entries_)) {}

ArchiveReader& ArchiveReader::operator=(ArchiveReader&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) ::munmap(map_, map_len_);
    path_ = std::move(other.path_);
    map_ = std::exchange(other.map_, nullptr);
    map_len_ = std::exchange(other.map_len_, 0);
    footer_offset_ = other.footer_offset_;
    labels_ = std::move(other.labels_);
    entries_ = std::move(other.entries_);
    label_starts_ = std::move(other.label_starts_);
    label_entries_ = std::move(other.label_entries_);
  }
  return *this;
}

ArchiveReader::~ArchiveReader() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
}

Result<uint32_t> ArchiveReader::FindLabel(const std::string& label) const {
  for (uint32_t id = 0; id < labels_.size(); ++id) {
    if (labels_[id] == label) return id;
  }
  return Status::NotFound("no label '" + label + "' in archive " + path_);
}

std::span<const int64_t> ArchiveReader::Values(
    const ArchiveEntry& entry) const {
  if (entry.bytes == 0) return {};
  // Entry offsets are 8-aligned on top of a page-aligned mapping, so the
  // cast yields a properly aligned int64 column served in place.
  return std::span<const int64_t>(
      reinterpret_cast<const int64_t*>(base() + entry.offset),
      static_cast<size_t>(entry.count));
}

data::RoundView ArchiveReader::CohortRound(const ArchiveEntry& entry,
                                           int64_t t) const {
  const size_t wpr = CohortWordsPerRound(entry.count);
  const char* round = base() + entry.offset +
                      static_cast<size_t>(t - 1) * wpr * sizeof(uint64_t);
  return data::RoundView(reinterpret_cast<const uint64_t*>(round),
                         entry.count);
}

Result<core::WindowRelease> ArchiveReader::ToWindowRelease(
    const ArchiveEntry& entry) const {
  if (entry.kind != EntryKind::kWindow) {
    return Status::InvalidArgument("entry is not a window release");
  }
  core::WindowRelease release;
  release.t = entry.t;
  release.window_k = entry.window_k;
  release.npad = entry.npad;
  release.true_n = entry.true_n;
  const std::span<const int64_t> values = Values(entry);
  release.histogram.assign(values.begin(), values.end());
  return release;
}

Result<core::CumulativeRelease> ArchiveReader::ToCumulativeRelease(
    const ArchiveEntry& entry) const {
  if (entry.kind != EntryKind::kCumulative) {
    return Status::InvalidArgument("entry is not a cumulative release");
  }
  core::CumulativeRelease release;
  release.t = entry.t;
  const std::span<const int64_t> values = Values(entry);
  release.thresholds.assign(values.begin(), values.end());
  return release;
}

Result<core::CategoricalRelease> ArchiveReader::ToCategoricalRelease(
    const ArchiveEntry& entry) const {
  if (entry.kind != EntryKind::kCategorical) {
    return Status::InvalidArgument("entry is not a categorical release");
  }
  core::CategoricalRelease release;
  release.t = entry.t;
  release.window_k = entry.window_k;
  release.alphabet = entry.alphabet;
  release.npad = entry.npad;
  release.true_n = entry.true_n;
  const std::span<const int64_t> values = Values(entry);
  release.histogram.assign(values.begin(), values.end());
  return release;
}

Result<core::ReleaseLog> ArchiveReader::ToReleaseLog(uint32_t label_id) const {
  core::ReleaseLog log;
  for (const ArchiveEntry& e : entries_) {
    if (e.label_id != label_id) continue;
    switch (e.kind) {
      case EntryKind::kWindow: {
        LONGDP_ASSIGN_OR_RETURN(core::WindowRelease r, ToWindowRelease(e));
        LONGDP_RETURN_NOT_OK(log.Append(std::move(r)));
        break;
      }
      case EntryKind::kCumulative: {
        LONGDP_ASSIGN_OR_RETURN(core::CumulativeRelease r,
                                ToCumulativeRelease(e));
        LONGDP_RETURN_NOT_OK(log.Append(std::move(r)));
        break;
      }
      case EntryKind::kCategorical: {
        LONGDP_ASSIGN_OR_RETURN(core::CategoricalRelease r,
                                ToCategoricalRelease(e));
        LONGDP_RETURN_NOT_OK(log.Append(std::move(r)));
        break;
      }
      case EntryKind::kCohort:
        break;  // panels are served via CohortRound, not the log
    }
  }
  return log;
}

}  // namespace archive
}  // namespace longdp
