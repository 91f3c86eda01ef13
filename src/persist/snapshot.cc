#include "persist/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "persist/crc32c.h"
#include "persist/posix_io.h"
#include "util/csv.h"

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

// Header numbers are whole decimal tokens: trailing garbage, overflow and
// empty tokens are errors, never a silent 0.
Result<int64_t> ReadHeaderInt(std::istream& header) {
  std::string tok;
  if (!(header >> tok)) {
    return Status::InvalidArgument("truncated snapshot header");
  }
  return util::ParseInt64Field(tok);
}

// The seed is unsigned: a sign is rejected rather than wrapped.
Result<uint64_t> ReadHeaderSeed(std::istream& header) {
  std::string tok;
  if (!(header >> tok)) {
    return Status::InvalidArgument("truncated snapshot header");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(tok[0])) || *end != '\0' ||
      errno == ERANGE) {
    return Status::InvalidArgument("malformed snapshot seed '" + tok + "'");
  }
  return static_cast<uint64_t>(v);
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
  LONGDP_ASSIGN_OR_RETURN(snap.meta.format_version, ReadHeaderInt(header));
  LONGDP_ASSIGN_OR_RETURN(snap.meta.seed, ReadHeaderSeed(header));
  LONGDP_ASSIGN_OR_RETURN(snap.meta.round, ReadHeaderInt(header));
  LONGDP_ASSIGN_OR_RETURN(int64_t declared, ReadHeaderInt(header));
  std::string crc_tok;
  if (!(header >> crc_tok) || crc_tok.size() != 8) {
    return Status::InvalidArgument("malformed snapshot checksum field");
  }
  std::string extra;
  if (header >> extra) {
    return Status::InvalidArgument("trailing data after snapshot header: '" +
                                   extra + "'");
  }
  if (snap.meta.format_version < 0 || snap.meta.round < 0 || declared < 0) {
    return Status::InvalidArgument("malformed snapshot header");
  }
  char* end = nullptr;
  const unsigned long declared_crc = std::strtoul(crc_tok.c_str(), &end, 16);
  if (*end != '\0') {
    return Status::InvalidArgument("malformed snapshot checksum field");
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
  if (actual_crc != static_cast<uint32_t>(declared_crc)) {
    char actual_hex[16];
    std::snprintf(actual_hex, sizeof(actual_hex), "%08x", actual_crc);
    return Status::DataLoss("snapshot checksum mismatch: header " + crc_tok +
                            ", payload " + actual_hex);
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
