#include "persist/session.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "persist/snapshot.h"
#include "stream/state_io.h"

namespace longdp {
namespace persist {

namespace {
Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return Status::IOError("mkdir failed for '" + dir + "': " +
                         std::strerror(errno));
}

Status CheckHooks(const SynthesizerHooks& hooks) {
  if (!hooks.save || !hooks.restore || !hooks.observe || !hooks.round ||
      !hooks.release_record) {
    return Status::InvalidArgument("SynthesizerHooks has unset callbacks");
  }
  return Status::OK();
}
}  // namespace

Result<RecoveryReport> RecoveryManager::Recover(
    const std::string& snapshot_path, const std::string& wal_path,
    const SynthesizerHooks& hooks, std::vector<std::string>* replay) {
  LONGDP_RETURN_NOT_OK(CheckHooks(hooks));
  RecoveryReport report;
  replay->clear();

  // 1. The WAL, tolerantly: a torn tail is the one damage a crash is
  // allowed to leave behind, and it is repaired by truncation. Anything a
  // truncated tail cannot explain (a snapshot ahead of the log, below)
  // stays fatal.
  WalContents wal;
  Result<WalContents> wal_read = ReadWal(wal_path, WalReadMode::kTolerateTornTail);
  if (wal_read.ok()) {
    wal = std::move(wal_read).value();
  } else if (!wal_read.status().IsNotFound()) {
    return wal_read.status();
  }
  if (wal.torn_tail) {
    LONGDP_RETURN_NOT_OK(TruncateWal(wal_path, wal.valid_bytes));
    report.torn_tail_truncated = true;
  }
  report.wal_rounds = static_cast<int64_t>(wal.records.size());

  // 2. The snapshot. Missing is fine (recover from round 0 by replaying
  // the whole log); damaged or mismatched is not.
  Result<Snapshot> snap_read = ReadSnapshot(snapshot_path);
  if (snap_read.ok()) {
    Snapshot& snap = snap_read.value();
    if (snap.meta.kind != hooks.kind) {
      return Status::InvalidArgument(
          "snapshot is for synthesizer kind '" + snap.meta.kind +
          "', session expects '" + hooks.kind + "'");
    }
    if (snap.meta.format_version != hooks.format_version) {
      return Status::InvalidArgument(
          "snapshot payload format v" +
          std::to_string(snap.meta.format_version) +
          " does not match this build's v" +
          std::to_string(hooks.format_version));
    }
    if (snap.meta.seed != hooks.seed) {
      return Status::InvalidArgument(
          "snapshot was taken under a different seed; refusing a replay "
          "that would diverge from the release log");
    }
    std::istringstream payload(std::move(snap.payload));
    LONGDP_RETURN_NOT_OK(hooks.restore(payload));
    LONGDP_RETURN_NOT_OK(
        stream::state_io::ExpectEnd(payload, "snapshot payload"));
    if (hooks.round() != snap.meta.round) {
      return Status::DataLoss(
          "snapshot header says round " + std::to_string(snap.meta.round) +
          " but the restored state is at round " +
          std::to_string(hooks.round()));
    }
    report.had_snapshot = true;
    report.snapshot_round = snap.meta.round;
  } else if (!snap_read.status().IsNotFound()) {
    return snap_read.status();
  }

  // 3. The replay region. The WAL frame for a round is written before any
  // snapshot at that round, so a snapshot ahead of the log means frames
  // were lost — unrecoverable, not a torn tail.
  if (report.snapshot_round > report.wal_rounds) {
    return Status::DataLoss(
        "snapshot is at round " + std::to_string(report.snapshot_round) +
        " but the WAL only holds " + std::to_string(report.wal_rounds) +
        " rounds; release-log frames are missing");
  }
  // The restored state must re-release the round the log published for
  // it. A snapshot is rebuilt from its stored targets, so one edited and
  // re-checksummed can load cleanly and then publish rounds that
  // contradict the log.
  if (report.snapshot_round > 0 &&
      hooks.release_record() !=
          wal.records[static_cast<size_t>(report.snapshot_round - 1)]) {
    return Status::DataLoss(
        "snapshot at round " + std::to_string(report.snapshot_round) +
        " does not re-release that round's WAL frame");
  }
  replay->assign(
      wal.records.begin() + static_cast<size_t>(report.snapshot_round),
      wal.records.end());
  report.replay_rounds = static_cast<int64_t>(replay->size());
  return report;
}

Result<std::unique_ptr<DurableSession>> DurableSession::Open(
    const Options& options, SynthesizerHooks hooks) {
  LONGDP_RETURN_NOT_OK(CheckHooks(hooks));
  if (options.dir.empty()) {
    return Status::InvalidArgument("DurableSession needs a directory");
  }
  if (options.snapshot_every < 0) {
    return Status::InvalidArgument("snapshot_every must be >= 0");
  }
  LONGDP_RETURN_NOT_OK(EnsureDir(options.dir));

  auto session = std::unique_ptr<DurableSession>(new DurableSession());
  session->options_ = options;
  session->snapshot_path_ = SnapshotPath(options.dir);
  const std::string wal_path = WalPath(options.dir);
  session->hooks_ = std::move(hooks);

  LONGDP_ASSIGN_OR_RETURN(
      session->report_,
      RecoveryManager::Recover(session->snapshot_path_, wal_path,
                               session->hooks_, &session->replay_records_));
  session->wal_rounds_ = session->report_.wal_rounds;
  LONGDP_ASSIGN_OR_RETURN(session->wal_, WalWriter::Open(wal_path));
  return session;
}

Status DurableSession::ObserveRound(const std::vector<uint8_t>& data) {
  LONGDP_RETURN_NOT_OK(hooks_.observe(data));
  const std::string record = hooks_.release_record();
  if (replay_pos_ < replay_records_.size()) {
    // Replay-with-verification: this round was already released and its
    // frame is durable. The re-observed record must match byte for byte —
    // a divergence means the recovered state would rewrite published
    // history, which is exactly what the durability layer exists to make
    // impossible.
    if (record != replay_records_[replay_pos_]) {
      return Status::DataLoss(
          "replayed round " + std::to_string(hooks_.round()) +
          " produced a release that differs from the WAL frame");
    }
    ++replay_pos_;
  } else {
    LONGDP_RETURN_NOT_OK(wal_->Append(record));
    ++wal_rounds_;
  }
  if (options_.snapshot_every > 0 &&
      hooks_.round() % options_.snapshot_every == 0) {
    // After the append, so the on-disk snapshot never leads the log.
    LONGDP_RETURN_NOT_OK(Checkpoint());
  }
  return Status::OK();
}

Status DurableSession::Checkpoint() {
  std::ostringstream payload;
  LONGDP_RETURN_NOT_OK(hooks_.save(payload));
  SnapshotMeta meta;
  meta.kind = hooks_.kind;
  meta.format_version = hooks_.format_version;
  meta.seed = hooks_.seed;
  meta.round = hooks_.round();
  return WriteSnapshot(snapshot_path_, meta, std::move(payload).str());
}

}  // namespace persist
}  // namespace longdp
