#include "persist/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>

#include "persist/crc32c.h"
#include "persist/posix_io.h"

namespace longdp {
namespace persist {

namespace {
constexpr char kSnapshotMagicPrefix[] = "longdp-snapshot-";
constexpr char kSnapshotMagic[] = "longdp-snapshot-v1";

bool ValidKindToken(const std::string& kind) {
  if (kind.empty()) return false;
  for (char c : kind) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '-' || c == '_';
    if (!ok) return false;
  }
  return true;
}

// Header numbers are canonical decimal tokens: digits only, no sign, no
// leading zero unless the value is 0, no overflow past `max`. Every value
// then has exactly one spelling, so a header that decodes re-encodes to
// its own bytes.
Result<uint64_t> ReadHeaderNumber(std::istream& header, uint64_t max,
                                  const char* what) {
  std::string tok;
  if (!(header >> tok)) {
    return Status::InvalidArgument("truncated snapshot header");
  }
  if (tok[0] == '0' ? tok.size() != 1
                    : !std::all_of(tok.begin(), tok.end(), [](char c) {
                        return c >= '0' && c <= '9';
                      })) {
    return Status::InvalidArgument(std::string("malformed snapshot ") + what +
                                   " '" + tok + "'");
  }
  uint64_t v = 0;
  for (char c : tok) {
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (max - digit) / 10) {
      return Status::InvalidArgument(std::string("snapshot ") + what +
                                     " out of range: '" + tok + "'");
    }
    v = v * 10 + digit;
  }
  return v;
}

Result<int64_t> ReadHeaderInt(std::istream& header, const char* what) {
  LONGDP_ASSIGN_OR_RETURN(const uint64_t v,
                          ReadHeaderNumber(header, INT64_MAX, what));
  return static_cast<int64_t>(v);
}

// The checksum is exactly eight lowercase hex digits, as EncodeHeader
// prints it.
Result<uint32_t> ReadHeaderCrc(std::istream& header) {
  std::string tok;
  if (!(header >> tok) || tok.size() != 8) {
    return Status::InvalidArgument("malformed snapshot checksum field");
  }
  uint32_t v = 0;
  for (char c : tok) {
    uint32_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint32_t>(c - 'a' + 10);
    } else {
      return Status::InvalidArgument("malformed snapshot checksum field");
    }
    v = (v << 4) | digit;
  }
  return v;
}

std::string EncodeHeader(const SnapshotMeta& meta,
                         const std::string& payload) {
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x",
                Crc32c(payload.data(), payload.size()));
  std::ostringstream out;
  out << kSnapshotMagic << " " << meta.kind << " " << meta.format_version
      << " " << meta.seed << " " << meta.round << " " << payload.size()
      << " " << crc_hex << "\n";
  return out.str();
}

// Header and payload go out as two writes: the payload is never copied
// into an encoded buffer.
Status WriteEncodedToFd(int fd, const std::string& path,
                        const SnapshotMeta& meta,
                        const std::string& payload) {
  const std::string header = EncodeHeader(meta, payload);
  LONGDP_RETURN_NOT_OK(WriteAllFd(fd, path, header.data(), header.size()));
  LONGDP_RETURN_NOT_OK(WriteAllFd(fd, path, payload.data(), payload.size()));
  return SyncFd(fd, path);
}
}  // namespace

std::string EncodeSnapshot(const SnapshotMeta& meta,
                           const std::string& payload) {
  return EncodeHeader(meta, payload) + payload;
}

Result<Snapshot> DecodeSnapshot(std::string bytes) {
  const size_t eol = bytes.find('\n');
  if (eol == std::string::npos) {
    return Status::InvalidArgument("not a snapshot: no header line");
  }
  std::istringstream header(bytes.substr(0, eol));
  std::string magic;
  if (!(header >> magic)) {
    return Status::InvalidArgument("not a snapshot: empty header");
  }
  if (magic != kSnapshotMagic) {
    if (magic.rfind(kSnapshotMagicPrefix, 0) == 0) {
      return Status::InvalidArgument("unsupported snapshot version '" +
                                     magic + "'; this build reads " +
                                     kSnapshotMagic);
    }
    return Status::InvalidArgument("not a snapshot");
  }
  Snapshot snap;
  if (!(header >> snap.meta.kind) || !ValidKindToken(snap.meta.kind)) {
    return Status::InvalidArgument("malformed snapshot kind");
  }
  LONGDP_ASSIGN_OR_RETURN(snap.meta.format_version,
                          ReadHeaderInt(header, "format version"));
  LONGDP_ASSIGN_OR_RETURN(snap.meta.seed,
                          ReadHeaderNumber(header, UINT64_MAX, "seed"));
  LONGDP_ASSIGN_OR_RETURN(snap.meta.round, ReadHeaderInt(header, "round"));
  LONGDP_ASSIGN_OR_RETURN(const int64_t declared,
                          ReadHeaderInt(header, "payload size"));
  LONGDP_ASSIGN_OR_RETURN(const uint32_t declared_crc, ReadHeaderCrc(header));
  std::string extra;
  if (header >> extra) {
    return Status::InvalidArgument("trailing data after snapshot header: '" +
                                   extra + "'");
  }

  const size_t have = bytes.size() - (eol + 1);
  const size_t want = static_cast<size_t>(declared);
  if (have < want) {
    return Status::DataLoss("snapshot truncated: header declares " +
                            std::to_string(want) + " payload bytes, file has " +
                            std::to_string(have));
  }
  if (have > want) {
    return Status::DataLoss("snapshot has " + std::to_string(have - want) +
                            " trailing bytes past the declared payload");
  }
  bytes.erase(0, eol + 1);
  snap.payload = std::move(bytes);
  const uint32_t actual_crc =
      Crc32c(snap.payload.data(), snap.payload.size());
  if (actual_crc != declared_crc) {
    char hex[2][16];
    std::snprintf(hex[0], sizeof(hex[0]), "%08x", declared_crc);
    std::snprintf(hex[1], sizeof(hex[1]), "%08x", actual_crc);
    return Status::DataLoss(std::string("snapshot checksum mismatch: header ") +
                            hex[0] + ", payload " + hex[1]);
  }
  return snap;
}

Status WriteSnapshot(const std::string& path, const SnapshotMeta& meta,
                     const std::string& payload) {
  const std::string tmp = path + ".tmp";
  LONGDP_ASSIGN_OR_RETURN(
      int fd, OpenFd(tmp, O_WRONLY | O_CREAT | O_TRUNC, 0644));
  Status write_status = WriteEncodedToFd(fd, tmp, meta, payload);
  ::close(fd);
  if (!write_status.ok()) {
    ::unlink(tmp.c_str());  // best-effort cleanup of the partial temp file
    return write_status;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status st = Status::IOError("rename '" + tmp + "' over '" + path +
                                "' failed");
    ::unlink(tmp.c_str());
    return st;
  }
  // The rename itself must survive a crash: fsync the directory entry.
  return SyncParentDir(path);
}

Status WriteSnapshotDirect(const std::string& path, const SnapshotMeta& meta,
                           const std::string& payload) {
  LONGDP_ASSIGN_OR_RETURN(
      int fd, OpenFd(path, O_WRONLY | O_CREAT | O_TRUNC, 0644));
  Status write_status = WriteEncodedToFd(fd, path, meta, payload);
  ::close(fd);
  return write_status;
}

Result<Snapshot> ReadSnapshot(const std::string& path) {
  std::string bytes;
  LONGDP_RETURN_NOT_OK(ReadFileBytes(path, &bytes));
  return DecodeSnapshot(std::move(bytes));
}

}  // namespace persist
}  // namespace longdp
