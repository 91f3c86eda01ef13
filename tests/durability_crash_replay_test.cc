// Real-crash acceptance suite: fork/exec the durability_crash_helper
// binary, let it SIGKILL itself mid-run (right after a round's WAL fsync),
// then relaunch it to recover and finish — and require the surviving WAL
// to be byte-identical to an uninterrupted run's. This is the ISSUE's
// acceptance bar, exercised with an actual dead process rather than an
// in-process simulation: no destructor, cache flush, or library goodwill
// can paper over a missing fsync here.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <string>
#include <vector>

#include "persist/session.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

#ifndef LONGDP_CRASH_HELPER
#error "LONGDP_CRASH_HELPER must point at the helper binary"
#endif

namespace longdp {
namespace persist {
namespace {

constexpr int64_t kHorizon = 12;  // must match the helper's kHorizon

struct HelperResult {
  bool signaled = false;
  int signal = 0;
  int exit_code = -1;
};

// Runs the helper to completion or death; never throws the test off by
// more than one waitpid.
HelperResult RunHelper(const std::string& kind, const std::string& dir,
                       int64_t last_round, bool kill, int threads,
                       int shards) {
  HelperResult result;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ADD_FAILURE() << "fork failed";
    return result;
  }
  if (pid == 0) {
    const std::string last = std::to_string(last_round);
    const std::string threads_s = std::to_string(threads);
    const std::string shards_s = std::to_string(shards);
    ::execl(LONGDP_CRASH_HELPER, LONGDP_CRASH_HELPER, kind.c_str(),
            dir.c_str(), last.c_str(), kill ? "kill" : "run",
            threads_s.c_str(), shards_s.c_str(),
            static_cast<char*>(nullptr));
    _exit(127);  // execl only returns on failure
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) {
    ADD_FAILURE() << "waitpid failed";
    return result;
  }
  if (WIFSIGNALED(status)) {
    result.signaled = true;
    result.signal = WTERMSIG(status);
  } else if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  }
  return result;
}

class CrashReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/longdp_crash_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    root_ = tmpl;
  }
  void TearDown() override {
    std::string cmd = "rm -rf '" + root_ + "'";
    if (std::system(cmd.c_str()) != 0) {
      ADD_FAILURE() << "cleanup of " << root_ << " failed";
    }
  }

  std::string Dir(const std::string& name) const {
    return root_ + "/" + name;
  }

  // The WAL must read back STRICTLY clean after recovery completed the
  // run — recovery repaired any torn tail on the way.
  static std::vector<std::string> WalRecords(const std::string& dir) {
    auto read =
        ReadWal(DurableSession::WalPath(dir), WalReadMode::kStrict);
    EXPECT_TRUE(read.ok()) << read.status().ToString();
    return read.ok() ? read->records : std::vector<std::string>{};
  }

  // Uninterrupted reference run for `kind`, serial grid.
  std::vector<std::string> Reference(const std::string& kind) {
    const std::string dir = Dir(kind + "-reference");
    HelperResult ref = RunHelper(kind, dir, kHorizon, /*kill=*/false,
                                 /*threads=*/0, /*shards=*/0);
    EXPECT_EQ(ref.exit_code, 0);
    return WalRecords(dir);
  }

  std::string root_;
};

TEST_F(CrashReplayTest, KillAtEveryRoundThenRecoverMatchesUninterrupted) {
  for (const char* kind :
       {"cumulative", "fixed-window", "categorical", "categorical-5"}) {
    const std::vector<std::string> want = Reference(kind);
    ASSERT_EQ(want.size(), static_cast<size_t>(kHorizon)) << kind;
    for (int64_t kill_at = 1; kill_at <= kHorizon; ++kill_at) {
      const std::string dir =
          Dir(std::string(kind) + "-kill" + std::to_string(kill_at));
      HelperResult crashed = RunHelper(kind, dir, kill_at, /*kill=*/true,
                                       /*threads=*/0, /*shards=*/0);
      ASSERT_TRUE(crashed.signaled)
          << kind << " kill_at=" << kill_at
          << " exit=" << crashed.exit_code;
      ASSERT_EQ(crashed.signal, SIGKILL);

      HelperResult recovered =
          RunHelper(kind, dir, kHorizon, /*kill=*/false, /*threads=*/0,
                    /*shards=*/0);
      ASSERT_EQ(recovered.exit_code, 0)
          << kind << " kill_at=" << kill_at;
      EXPECT_EQ(WalRecords(dir), want)
          << kind << " kill_at=" << kill_at;
    }
  }
}

TEST_F(CrashReplayTest, DoubleCrashStillConverges) {
  // Crash at round 3, recover and crash again at round 9, then finish.
  const std::vector<std::string> want = Reference("cumulative");
  const std::string dir = Dir("double");
  HelperResult first =
      RunHelper("cumulative", dir, 3, true, 0, 0);
  ASSERT_TRUE(first.signaled);
  HelperResult second =
      RunHelper("cumulative", dir, 9, true, 0, 0);
  ASSERT_TRUE(second.signaled);
  HelperResult done =
      RunHelper("cumulative", dir, kHorizon, false, 0, 0);
  ASSERT_EQ(done.exit_code, 0);
  EXPECT_EQ(WalRecords(dir), want);
}

TEST_F(CrashReplayTest, RecoveryOntoDifferentGridIsByteIdentical) {
  // The killed run used 16 shards x 2 threads; recovery finishes the run
  // on 4 shards x 8 threads. Keyed substreams make the replayed and new
  // releases byte-identical anyway — the acceptance clause of the ISSUE.
  for (const char* kind :
       {"cumulative", "fixed-window", "categorical", "categorical-5"}) {
    const std::vector<std::string> want = Reference(kind);
    const std::string dir = Dir(std::string(kind) + "-grid");
    HelperResult crashed = RunHelper(kind, dir, 7, /*kill=*/true,
                                     /*threads=*/2, /*shards=*/16);
    ASSERT_TRUE(crashed.signaled) << kind;
    HelperResult recovered = RunHelper(kind, dir, kHorizon, /*kill=*/false,
                                       /*threads=*/8, /*shards=*/4);
    ASSERT_EQ(recovered.exit_code, 0) << kind;
    EXPECT_EQ(WalRecords(dir), want) << kind;
  }
}

TEST_F(CrashReplayTest, RecoveredProcessKeepsSnapshotFresh) {
  // After a crash + recovery the snapshot file reads back clean and its
  // round never exceeds the WAL length (the ordering invariant held
  // across a real process death).
  const std::string dir = Dir("invariant");
  ASSERT_TRUE(RunHelper("cumulative", dir, 6, true, 0, 0).signaled);
  HelperResult done = RunHelper("cumulative", dir, kHorizon, false, 0, 0);
  ASSERT_EQ(done.exit_code, 0);
  auto snapshot = ReadSnapshot(DurableSession::SnapshotPath(dir));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_LE(snapshot->meta.round,
            static_cast<int64_t>(WalRecords(dir).size()));
}

}  // namespace
}  // namespace persist
}  // namespace longdp
