// Versioned, checksummed snapshot files for synthesizer state.
//
// A snapshot is a single file:
//
//   longdp-snapshot-v1 <kind> <format_version> <seed> <round> <bytes> <crc>\n
//   <payload: exactly <bytes> bytes>
//
// The header line is plain text (kind is a token like "cumulative"; crc is
// the 8-hex-digit CRC32C of the payload). The payload is the synthesizer's
// own SaveCheckpoint output, treated here as opaque bytes — the snapshot
// layer adds integrity (checksum, exact length) and identity (kind, format
// version, seed, round) on top, so recovery can refuse a snapshot from the
// wrong synthesizer, seed, or format before feeding it to a parser.
//
// Durability: WriteSnapshot writes to `<path>.tmp`, fsyncs the file,
// renames over `path`, and fsyncs the parent directory — after a crash the
// path holds either the complete old snapshot or the complete new one,
// never a prefix. (Single writer per path; the fixed temp name is not
// concurrency-safe.)
//
// Status taxonomy (tests pin these):
//   NotFound         — no file at path
//   InvalidArgument  — not a snapshot, unsupported snapshot version,
//                      malformed header, identity mismatch
//   DataLoss         — payload shorter/longer than the header declares, or
//                      checksum mismatch (torn write / bit rot)
//   IOError          — the OS call itself failed (open/read/write/fsync)

#ifndef LONGDP_PERSIST_SNAPSHOT_H_
#define LONGDP_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace longdp {
namespace persist {

struct SnapshotMeta {
  std::string kind;            ///< synthesizer family, e.g. "cumulative"
  int64_t format_version = 0;  ///< the payload's checkpoint format version
  uint64_t seed = 0;           ///< substream root seed of the run
  int64_t round = 0;           ///< rounds observed when the snapshot was cut
};

struct Snapshot {
  SnapshotMeta meta;
  std::string payload;
};

/// Serializes meta + payload into the wire format (header line + payload).
std::string EncodeSnapshot(const SnapshotMeta& meta,
                           const std::string& payload);

/// Parses wire-format bytes (taken by value: the payload is moved out of
/// them, not copied). See the status taxonomy above.
Result<Snapshot> DecodeSnapshot(std::string bytes);

/// Atomically replaces `path` with the encoded snapshot (temp + fsync +
/// rename + directory fsync).
Status WriteSnapshot(const std::string& path, const SnapshotMeta& meta,
                     const std::string& payload);

/// Writes the encoded snapshot straight to `path` with no temp/rename —
/// NOT crash-atomic. For character devices and write-failure injection
/// (e.g. /dev/full) where the atomic dance cannot apply; production
/// snapshots use WriteSnapshot.
Status WriteSnapshotDirect(const std::string& path, const SnapshotMeta& meta,
                           const std::string& payload);

/// Reads and decodes the snapshot at `path`.
Result<Snapshot> ReadSnapshot(const std::string& path);

}  // namespace persist
}  // namespace longdp

#endif  // LONGDP_PERSIST_SNAPSHOT_H_
