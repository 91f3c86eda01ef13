#include "archive/format.h"

#include <cstring>

#include "util/bits.h"

namespace longdp {
namespace archive {

namespace {

void AppendU32(std::string* out, uint32_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

void AppendI64(std::string* out, int64_t v) {
  AppendU64(out, static_cast<uint64_t>(v));
}

// The smallest encodings of a label (its u32 length) and of an index
// entry (two u32s, nine 8-byte fields, the u32 CRC): a count is bounded by
// the bytes left for its records before anything is reserved for it.
constexpr size_t kMinLabelBytes = 4;
constexpr size_t kEntryBytes = 2 * 4 + 9 * 8 + 4;

// Bounds-checked sequential decoder over the footer bytes. Every read that
// would run past the end fails instead of reading garbage — a truncated
// footer with a forged CRC must not crash the reader.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  Status ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadU64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadI64(int64_t* v) { return ReadRaw(v, sizeof(*v)); }

  Status ReadString(size_t len, std::string* out) {
    if (data_.size() - pos_ < len) {
      return Status::DataLoss("archive footer truncated");
    }
    out->assign(data_.data() + pos_, len);
    pos_ += len;
    return Status::OK();
  }

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  Status ReadRaw(void* v, size_t len) {
    if (data_.size() - pos_ < len) {
      return Status::DataLoss("archive footer truncated");
    }
    std::memcpy(v, data_.data() + pos_, len);
    pos_ += len;
    return Status::OK();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace

Result<uint64_t> ExpectedPayloadBytes(const ArchiveEntry& entry) {
  // count and rounds are non-negative; a shape whose byte length passes
  // 2^64 is a forged footer, never a real column.
  uint64_t values = static_cast<uint64_t>(entry.count);
  uint64_t bytes = 0;
  if ((entry.kind == EntryKind::kCohort &&
       __builtin_mul_overflow(static_cast<uint64_t>(entry.rounds),
                              CohortWordsPerRound(entry.count), &values)) ||
      __builtin_mul_overflow(values, uint64_t{8}, &bytes)) {
    return Status::DataLoss("archive entry shape overflows its byte length");
  }
  return bytes;
}

std::string EncodeHeader() {
  std::string out;
  AppendU64(&out, kMagic);
  AppendU32(&out, kFormatVersion);
  AppendU32(&out, 0);  // reserved
  return out;
}

std::string EncodeTail(uint64_t footer_offset, uint32_t footer_crc) {
  std::string out;
  AppendU64(&out, footer_offset);
  AppendU32(&out, footer_crc);
  AppendU32(&out, kFormatVersion);
  AppendU64(&out, kMagic);
  return out;
}

std::string EncodeFooter(const std::vector<std::string>& labels,
                         const std::vector<ArchiveEntry>& entries) {
  std::string out;
  AppendU32(&out, static_cast<uint32_t>(labels.size()));
  for (const std::string& label : labels) {
    AppendU32(&out, static_cast<uint32_t>(label.size()));
    out.append(label);
  }
  AppendU32(&out, static_cast<uint32_t>(entries.size()));
  for (const ArchiveEntry& e : entries) {
    AppendU32(&out, static_cast<uint32_t>(e.kind));
    AppendU32(&out, e.label_id);
    AppendI64(&out, e.t);
    AppendI64(&out, e.window_k);
    AppendI64(&out, e.alphabet);
    AppendI64(&out, e.npad);
    AppendI64(&out, e.true_n);
    AppendI64(&out, e.count);
    AppendI64(&out, e.rounds);
    AppendU64(&out, e.offset);
    AppendU64(&out, e.bytes);
    AppendU32(&out, e.crc32c);
  }
  return out;
}

Status DecodeFooter(std::string_view footer, std::vector<std::string>* labels,
                    std::vector<ArchiveEntry>* entries) {
  Cursor cur(footer);
  labels->clear();
  entries->clear();

  uint32_t num_labels = 0;
  LONGDP_RETURN_NOT_OK(cur.ReadU32(&num_labels));
  if (num_labels > cur.remaining() / kMinLabelBytes) {
    return Status::DataLoss("archive label count exceeds the footer");
  }
  labels->reserve(num_labels);
  for (uint32_t i = 0; i < num_labels; ++i) {
    uint32_t len = 0;
    LONGDP_RETURN_NOT_OK(cur.ReadU32(&len));
    std::string label;
    LONGDP_RETURN_NOT_OK(cur.ReadString(len, &label));
    labels->push_back(std::move(label));
  }

  uint32_t num_entries = 0;
  LONGDP_RETURN_NOT_OK(cur.ReadU32(&num_entries));
  if (num_entries > cur.remaining() / kEntryBytes) {
    return Status::DataLoss("archive entry count exceeds the footer");
  }
  entries->reserve(num_entries);
  for (uint32_t i = 0; i < num_entries; ++i) {
    ArchiveEntry e;
    uint32_t kind = 0;
    int64_t window_k = 0;
    int64_t alphabet = 0;
    LONGDP_RETURN_NOT_OK(cur.ReadU32(&kind));
    LONGDP_RETURN_NOT_OK(cur.ReadU32(&e.label_id));
    LONGDP_RETURN_NOT_OK(cur.ReadI64(&e.t));
    LONGDP_RETURN_NOT_OK(cur.ReadI64(&window_k));
    LONGDP_RETURN_NOT_OK(cur.ReadI64(&alphabet));
    LONGDP_RETURN_NOT_OK(cur.ReadI64(&e.npad));
    LONGDP_RETURN_NOT_OK(cur.ReadI64(&e.true_n));
    LONGDP_RETURN_NOT_OK(cur.ReadI64(&e.count));
    LONGDP_RETURN_NOT_OK(cur.ReadI64(&e.rounds));
    LONGDP_RETURN_NOT_OK(cur.ReadU64(&e.offset));
    LONGDP_RETURN_NOT_OK(cur.ReadU64(&e.bytes));
    LONGDP_RETURN_NOT_OK(cur.ReadU32(&e.crc32c));
    const std::string at = " in archive entry " + std::to_string(i);
    if (kind < static_cast<uint32_t>(EntryKind::kWindow) ||
        kind > static_cast<uint32_t>(EntryKind::kCohort)) {
      return Status::DataLoss("unknown entry kind " + std::to_string(kind) +
                              at);
    }
    e.kind = static_cast<EntryKind>(kind);
    if (e.label_id >= labels->size()) {
      return Status::DataLoss("label id out of range" + at);
    }
    if (window_k < 0 || window_k > util::kMaxWindow || alphabet < 0 ||
        alphabet > (1 << 24)) {
      return Status::DataLoss("implausible window/alphabet field" + at);
    }
    e.window_k = static_cast<int>(window_k);
    e.alphabet = static_cast<int>(alphabet);
    if (e.count < 0 || e.rounds < 0 ||
        (e.kind != EntryKind::kCohort && e.rounds != 0)) {
      return Status::DataLoss("negative or misplaced size field" + at);
    }
    LONGDP_ASSIGN_OR_RETURN(const uint64_t expected,
                            ExpectedPayloadBytes(e));
    if (e.bytes != expected) {
      return Status::DataLoss("payload length disagrees with entry shape" +
                              at);
    }
    entries->push_back(e);
  }
  if (!cur.AtEnd()) {
    return Status::DataLoss("trailing bytes after archive footer index");
  }
  return Status::OK();
}

}  // namespace archive
}  // namespace longdp
