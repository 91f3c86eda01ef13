#include "archive/writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <utility>

#include "archive/reader.h"
#include "persist/crc32c.h"
#include "persist/posix_io.h"

namespace longdp {
namespace archive {

Result<ArchiveWriter> ArchiveWriter::Create(const std::string& path) {
  LONGDP_ASSIGN_OR_RETURN(
      int fd, persist::OpenFd(path, O_WRONLY | O_CREAT | O_TRUNC, 0644));
  const std::string header = EncodeHeader();
  if (Status st = persist::WriteAllFd(fd, path, header.data(), header.size());
      !st.ok()) {
    ::close(fd);
    return st;
  }
  return ArchiveWriter(path, fd, header.size());
}

Result<ArchiveWriter> ArchiveWriter::OpenForAppend(const std::string& path) {
  // Reuse the reader's full open-time verification (magic, footer CRC,
  // per-payload CRC sweep): appending to a damaged archive would bury the
  // damage under a fresh valid tail.
  uint64_t payload_end = 0;
  std::vector<std::string> labels;
  std::vector<ArchiveEntry> entries;
  {
    LONGDP_ASSIGN_OR_RETURN(ArchiveReader reader, ArchiveReader::Open(path));
    payload_end = reader.footer_offset();
    labels = reader.labels();
    entries = reader.entries();
  }
  // O_APPEND: after the truncate below, every write lands at EOF, which is
  // exactly the old footer offset.
  LONGDP_ASSIGN_OR_RETURN(int fd,
                          persist::OpenFd(path, O_WRONLY | O_APPEND, 0));
  if (Status st =
          persist::TruncateFd(fd, path, static_cast<int64_t>(payload_end));
      !st.ok()) {
    ::close(fd);
    return st;
  }
  ArchiveWriter writer(path, fd, payload_end);
  writer.labels_ = std::move(labels);
  for (uint32_t id = 0; id < writer.labels_.size(); ++id) {
    writer.label_ids_[writer.labels_[id]] = id;
  }
  writer.entries_ = std::move(entries);
  return writer;
}

ArchiveWriter::ArchiveWriter(ArchiveWriter&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      offset_(other.offset_),
      broken_(other.broken_),
      finished_(other.finished_),
      labels_(std::move(other.labels_)),
      label_ids_(std::move(other.label_ids_)),
      entries_(std::move(other.entries_)) {}

ArchiveWriter& ArchiveWriter::operator=(ArchiveWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
    offset_ = other.offset_;
    broken_ = other.broken_;
    finished_ = other.finished_;
    labels_ = std::move(other.labels_);
    label_ids_ = std::move(other.label_ids_);
    entries_ = std::move(other.entries_);
  }
  return *this;
}

ArchiveWriter::~ArchiveWriter() {
  if (fd_ >= 0) ::close(fd_);
}

uint32_t ArchiveWriter::InternLabel(const std::string& label) {
  auto it = label_ids_.find(label);
  if (it != label_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(labels_.size());
  labels_.push_back(label);
  label_ids_[label] = id;
  return id;
}

Status ArchiveWriter::Poisoned() const {
  if (finished_) {
    return Status::FailedPrecondition("archive writer already finished: " +
                                      path_);
  }
  if (broken_) {
    return Status::FailedPrecondition(
        "archive writer poisoned by an earlier write failure: " + path_);
  }
  return Status::OK();
}

Status ArchiveWriter::AppendBlock(ArchiveEntry entry, const void* payload) {
  LONGDP_RETURN_NOT_OK(Poisoned());
  static constexpr char kZeros[kBlockAlign] = {};
  const size_t pad =
      (kBlockAlign - offset_ % kBlockAlign) % kBlockAlign;
  if (pad != 0) {
    if (Status st = persist::WriteAllFd(fd_, path_, kZeros, pad); !st.ok()) {
      broken_ = true;
      return st;
    }
    offset_ += pad;
  }
  entry.offset = offset_;
  entry.crc32c = persist::Crc32c(payload, entry.bytes);
  if (entry.bytes > 0) {
    if (Status st = persist::WriteAllFd(
            fd_, path_, static_cast<const char*>(payload), entry.bytes);
        !st.ok()) {
      broken_ = true;
      return st;
    }
  }
  offset_ += entry.bytes;
  entries_.push_back(entry);
  return Status::OK();
}

Status ArchiveWriter::AppendWindowRelease(const std::string& label,
                                          const core::WindowRelease& release) {
  ArchiveEntry entry;
  entry.kind = EntryKind::kWindow;
  entry.label_id = InternLabel(label);
  entry.t = release.t;
  entry.window_k = release.window_k;
  entry.npad = release.npad;
  entry.true_n = release.true_n;
  entry.count = static_cast<int64_t>(release.histogram.size());
  LONGDP_ASSIGN_OR_RETURN(entry.bytes, ExpectedPayloadBytes(entry));
  return AppendBlock(entry, release.histogram.data());
}

Status ArchiveWriter::AppendCumulativeRelease(
    const std::string& label, const core::CumulativeRelease& release) {
  ArchiveEntry entry;
  entry.kind = EntryKind::kCumulative;
  entry.label_id = InternLabel(label);
  entry.t = release.t;
  entry.count = static_cast<int64_t>(release.thresholds.size());
  LONGDP_ASSIGN_OR_RETURN(entry.bytes, ExpectedPayloadBytes(entry));
  return AppendBlock(entry, release.thresholds.data());
}

Status ArchiveWriter::AppendCategoricalRelease(
    const std::string& label, const core::CategoricalRelease& release) {
  ArchiveEntry entry;
  entry.kind = EntryKind::kCategorical;
  entry.label_id = InternLabel(label);
  entry.t = release.t;
  entry.window_k = release.window_k;
  entry.alphabet = release.alphabet;
  entry.npad = release.npad;
  entry.true_n = release.true_n;
  entry.count = static_cast<int64_t>(release.histogram.size());
  LONGDP_ASSIGN_OR_RETURN(entry.bytes, ExpectedPayloadBytes(entry));
  return AppendBlock(entry, release.histogram.data());
}

Status ArchiveWriter::AppendReleaseLog(const std::string& label,
                                       const core::ReleaseLog& log) {
  for (const core::WindowRelease& r : log.window_releases()) {
    LONGDP_RETURN_NOT_OK(AppendWindowRelease(label, r));
  }
  for (const core::CumulativeRelease& r : log.cumulative_releases()) {
    LONGDP_RETURN_NOT_OK(AppendCumulativeRelease(label, r));
  }
  for (const core::CategoricalRelease& r : log.categorical_releases()) {
    LONGDP_RETURN_NOT_OK(AppendCategoricalRelease(label, r));
  }
  return Status::OK();
}

Status ArchiveWriter::AppendCohort(const std::string& label,
                                   const data::LongitudinalDataset& panel) {
  LONGDP_RETURN_NOT_OK(Poisoned());
  ArchiveEntry entry;
  entry.kind = EntryKind::kCohort;
  entry.label_id = InternLabel(label);
  entry.count = panel.num_users();
  entry.rounds = panel.rounds();
  LONGDP_ASSIGN_OR_RETURN(entry.bytes, ExpectedPayloadBytes(entry));
  // Streamed rather than routed through AppendBlock: the panel's rounds are
  // written one packed stretch at a time with a running CRC, so archiving a
  // million-user panel needs no contiguous staging copy.
  static constexpr char kZeros[kBlockAlign] = {};
  const size_t pad = (kBlockAlign - offset_ % kBlockAlign) % kBlockAlign;
  if (pad != 0) {
    if (Status st = persist::WriteAllFd(fd_, path_, kZeros, pad); !st.ok()) {
      broken_ = true;
      return st;
    }
    offset_ += pad;
  }
  entry.offset = offset_;
  const size_t round_bytes = 8 * CohortWordsPerRound(entry.count);
  uint32_t crc = 0;
  for (int64_t t = 1; t <= entry.rounds; ++t) {
    const uint64_t* words = panel.Round(t).words();
    crc = persist::Crc32cExtend(crc, words, round_bytes);
    if (Status st = persist::WriteAllFd(
            fd_, path_, reinterpret_cast<const char*>(words), round_bytes);
        !st.ok()) {
      broken_ = true;
      return st;
    }
  }
  entry.crc32c = crc;
  offset_ += entry.bytes;
  entries_.push_back(entry);
  return Status::OK();
}

Status ArchiveWriter::Finish() {
  LONGDP_RETURN_NOT_OK(Poisoned());
  const std::string footer = EncodeFooter(labels_, entries_);
  const uint64_t footer_offset = offset_;
  if (Status st =
          persist::WriteAllFd(fd_, path_, footer.data(), footer.size());
      !st.ok()) {
    broken_ = true;
    return st;
  }
  const std::string tail =
      EncodeTail(footer_offset, persist::Crc32c(footer.data(), footer.size()));
  if (Status st = persist::WriteAllFd(fd_, path_, tail.data(), tail.size());
      !st.ok()) {
    broken_ = true;
    return st;
  }
  if (Status st = persist::SyncFd(fd_, path_); !st.ok()) {
    broken_ = true;
    return st;
  }
  ::close(fd_);
  fd_ = -1;
  finished_ = true;
  return persist::SyncParentDir(path_);
}

}  // namespace archive
}  // namespace longdp
