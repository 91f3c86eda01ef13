// Durable continual-release sessions: snapshot + WAL + crash recovery.
//
// A session owns two files in its directory:
//
//   snapshot.longdp — the synthesizer's full checkpoint, wrapped in the
//                     checksummed snapshot format (persist/snapshot.h);
//                     atomically replaced every `snapshot_every` rounds.
//   wal.longdp      — one checksummed frame per observed round holding the
//                     round's release record (persist/wal.h). Never
//                     truncated by snapshotting: it IS the durable release
//                     log of the run.
//
// Ordering invariant: the WAL frame for round t is fsynced BEFORE any
// snapshot at round t is cut, so on disk snapshot_round <= wal_rounds
// always holds. A crash between the two leaves a snapshot that is merely
// stale, never ahead of the log.
//
// Recovery (RecoveryManager): read the WAL tolerantly and truncate a torn
// tail (the one legitimate damage a crash can cause); restore the
// synthesizer from the snapshot if present (fresh otherwise) and check
// that it re-releases the snapshot round's WAL frame byte for byte; the
// rounds between the snapshot and the WAL head become the REPLAY REGION. The
// caller re-feeds those rounds' input data (deterministic pipelines can
// regenerate it); the session verifies each re-observed release record is
// byte-identical to the WAL frame — any divergence is DataLoss, because
// it means the rebuilt state would contradict what was already published.
// Since all synthesizer randomness is keyed by (seed, round), replay is
// exact at ANY shard/thread grid, including one different from the
// original run's.

#ifndef LONGDP_PERSIST_SESSION_H_
#define LONGDP_PERSIST_SESSION_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "persist/wal.h"
#include "util/status.h"

namespace longdp {
namespace persist {

/// Type-erased view of a synthesizer for the durability layer. The
/// bindings in persist/bindings.h construct these for the three concrete
/// synthesizers; tests construct cut-down ones directly.
struct SynthesizerHooks {
  /// Synthesizer family token stored in the snapshot header
  /// (e.g. "cumulative"); recovery refuses a snapshot of another kind.
  std::string kind;
  /// The SaveCheckpoint format version, for the snapshot header.
  int64_t format_version = 0;
  /// Substream root seed of the run; recovery refuses a snapshot taken
  /// under a different seed (its replay would diverge from the WAL).
  uint64_t seed = 0;
  /// Serializes the synthesizer (SaveCheckpoint).
  std::function<Status(std::ostream&)> save;
  /// Replaces the synthesizer with one restored from the stream
  /// (LoadCheckpoint); must consume the entire payload.
  std::function<Status(std::istream&)> restore;
  /// Feeds one round of per-user input data.
  std::function<Status(const std::vector<uint8_t>&)> observe;
  /// Rounds observed so far (t).
  std::function<int64_t()> round;
  /// The just-observed round's release record — the bytes that go in the
  /// WAL frame and are compared during replay.
  std::function<std::string()> release_record;
};

struct RecoveryReport {
  bool had_snapshot = false;
  int64_t snapshot_round = 0;  ///< round the synthesizer was restored to
  int64_t wal_rounds = 0;      ///< valid frames found in the log
  bool torn_tail_truncated = false;
  /// wal_rounds - snapshot_round: input rounds the caller must re-feed
  /// before the session starts appending new frames.
  int64_t replay_rounds = 0;
};

/// The recovery half of the session, usable standalone in tests: reads the
/// log and snapshot, repairs the one crash-legitimate damage (torn WAL
/// tail), restores the synthesizer, and hands back the release records the
/// caller must replay through ObserveRound verification.
class RecoveryManager {
 public:
  static Result<RecoveryReport> Recover(const std::string& snapshot_path,
                                        const std::string& wal_path,
                                        const SynthesizerHooks& hooks,
                                        std::vector<std::string>* replay);
};

class DurableSession {
 public:
  struct Options {
    /// Directory holding snapshot.longdp and wal.longdp; created (one
    /// level) if missing.
    std::string dir;
    /// Cut a snapshot every this many rounds (after the WAL append).
    /// 0 disables automatic snapshots (Checkpoint() still works).
    int64_t snapshot_every = 16;
  };

  /// Opens the session, running recovery first (see RecoveryManager).
  static Result<std::unique_ptr<DurableSession>> Open(
      const Options& options, SynthesizerHooks hooks);

  /// Feeds one round: observe, then verify-against-WAL (replay region) or
  /// append-to-WAL (new rounds), then maybe snapshot.
  Status ObserveRound(const std::vector<uint8_t>& data);

  /// Cuts a snapshot of the current state immediately.
  Status Checkpoint();

  /// Rounds the synthesizer has observed (including replayed ones).
  int64_t round() const { return hooks_.round(); }
  /// Rounds durable in the WAL.
  int64_t wal_rounds() const { return wal_rounds_; }
  /// Replay-region rounds the caller still must re-feed.
  int64_t replay_remaining() const {
    return static_cast<int64_t>(replay_records_.size() - replay_pos_);
  }
  const RecoveryReport& recovery() const { return report_; }

  static std::string SnapshotPath(const std::string& dir) {
    return dir + "/snapshot.longdp";
  }
  static std::string WalPath(const std::string& dir) {
    return dir + "/wal.longdp";
  }

 private:
  DurableSession() = default;

  Options options_;
  SynthesizerHooks hooks_;
  std::string snapshot_path_;
  std::unique_ptr<WalWriter> wal_;
  std::vector<std::string> replay_records_;
  size_t replay_pos_ = 0;
  int64_t wal_rounds_ = 0;
  RecoveryReport report_;
};

}  // namespace persist
}  // namespace longdp

#endif  // LONGDP_PERSIST_SESSION_H_
