// End-to-end durability: DurableSession + bindings over the real
// synthesizers. The acceptance bar (mirrored by the SIGKILL suite in
// durability_crash_replay_test.cc): interrupt a run at ANY round, reopen,
// re-feed the replay region, continue — and the WAL must end up
// byte-identical to the uninterrupted run's, including when the recovered
// process uses a different shards x threads grid.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "data/generators.h"
#include "persist/bindings.h"
#include "persist/session.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "util/thread_pool.h"

namespace longdp {
namespace persist {
namespace {

constexpr int64_t kHorizon = 12;
constexpr int64_t kUsers = 400;
constexpr uint64_t kDataSeed = 20260808;
constexpr uint64_t kRunSeed = 424243;

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/longdp_session_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    root_ = tmpl;
  }
  void TearDown() override {
    std::string cmd = "rm -rf '" + root_ + "'";
    if (std::system(cmd.c_str()) != 0) {
      ADD_FAILURE() << "cleanup of " << root_ << " failed";
    }
  }

  std::string Dir(const std::string& name) const { return root_ + "/" + name; }

  std::string root_;
};

// Round t's bits, regenerated deterministically (keyed generator) so a
// "different process" can reproduce them exactly.
std::vector<uint8_t> RoundBits(int64_t t) {
  static const data::LongitudinalDataset ds =
      data::BernoulliIid(kUsers, kHorizon, 0.3, kDataSeed, nullptr).value();
  std::vector<uint8_t> bits(static_cast<size_t>(kUsers));
  for (int64_t i = 0; i < kUsers; ++i) {
    bits[static_cast<size_t>(i)] = static_cast<uint8_t>(ds.Bit(i, t));
  }
  return bits;
}

// Categorical rounds: symbols derived from two keyed bit datasets so they
// are deterministic across "processes" without a shared RNG object.
std::vector<uint8_t> RoundSymbols(int64_t t, int alphabet) {
  static const data::LongitudinalDataset lo =
      data::BernoulliIid(kUsers, kHorizon, 0.5, kDataSeed + 1, nullptr)
          .value();
  static const data::LongitudinalDataset hi =
      data::BernoulliIid(kUsers, kHorizon, 0.5, kDataSeed + 2, nullptr)
          .value();
  std::vector<uint8_t> symbols(static_cast<size_t>(kUsers));
  for (int64_t i = 0; i < kUsers; ++i) {
    const int code = lo.Bit(i, t) + 2 * hi.Bit(i, t);
    symbols[static_cast<size_t>(i)] =
        static_cast<uint8_t>(code % alphabet);
  }
  return symbols;
}

core::CumulativeSynthesizer::Options CumulativeOpts(util::ThreadPool* pool) {
  core::CumulativeSynthesizer::Options opt;
  opt.horizon = kHorizon;
  opt.rho = 0.25;
  opt.seed = kRunSeed;
  opt.pool = pool;
  return opt;
}

core::FixedWindowSynthesizer::Options FixedWindowOpts(
    util::ThreadPool* pool) {
  core::FixedWindowSynthesizer::Options opt;
  opt.horizon = kHorizon;
  opt.window_k = 3;
  opt.rho = 0.25;
  opt.seed = kRunSeed;
  opt.pool = pool;
  return opt;
}

core::CategoricalWindowSynthesizer::Options CategoricalOpts(
    util::ThreadPool* pool) {
  core::CategoricalWindowSynthesizer::Options opt;
  opt.horizon = kHorizon;
  opt.window_k = 2;
  opt.alphabet = 3;
  opt.rho = 0.25;
  opt.seed = kRunSeed;
  opt.pool = pool;
  return opt;
}

DurableSession::Options SessionOpts(const std::string& dir,
                                    int64_t snapshot_every = 4) {
  DurableSession::Options opt;
  opt.dir = dir;
  opt.snapshot_every = snapshot_every;
  return opt;
}

std::vector<std::string> WalRecords(const std::string& dir) {
  auto read =
      ReadWal(DurableSession::WalPath(dir), WalReadMode::kStrict);
  EXPECT_TRUE(read.ok()) << read.status().ToString();
  return read.ok() ? read->records : std::vector<std::string>{};
}

// Runs `Run` rounds [session round + 1, last] through a DurableRun.
template <typename Run, typename DataFn>
void Feed(Run* run, int64_t last, const DataFn& data) {
  for (int64_t t = run->synth().t() + 1; t <= last; ++t) {
    ASSERT_TRUE(run->ObserveRound(data(t)).ok()) << "round " << t;
  }
}

TEST_F(SessionTest, CumulativeInterruptedRunMatchesUninterrupted) {
  const auto data = [](int64_t t) { return RoundBits(t); };
  {
    auto full = DurableCumulative::Open(SessionOpts(Dir("full")),
                                        CumulativeOpts(nullptr));
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    Feed(full->get(), kHorizon, data);
  }
  // Interrupt at every possible round (drop the session object, which is
  // what a clean kill looks like after the round's fsync returns).
  for (int64_t stop = 0; stop <= kHorizon; ++stop) {
    const std::string dir = Dir("stop" + std::to_string(stop));
    {
      auto first = DurableCumulative::Open(SessionOpts(dir),
                                           CumulativeOpts(nullptr));
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      Feed(first->get(), stop, data);
    }
    {
      auto resumed = DurableCumulative::Open(SessionOpts(dir),
                                             CumulativeOpts(nullptr));
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      // Snapshot every 4: the synthesizer restores to the last snapshot
      // round and the session asks for the rest of the WAL as replay.
      EXPECT_EQ((*resumed)->session().replay_remaining(),
                stop - (*resumed)->synth().t());
      Feed(resumed->get(), kHorizon, data);
      EXPECT_EQ((*resumed)->session().replay_remaining(), 0);
    }
    EXPECT_EQ(WalRecords(dir), WalRecords(Dir("full"))) << "stop=" << stop;
  }
}

TEST_F(SessionTest, FixedWindowRecoversOntoDifferentGrid) {
  const auto data = [](int64_t t) { return RoundBits(t); };
  {
    auto full = DurableFixedWindow::Open(SessionOpts(Dir("full")),
                                         FixedWindowOpts(nullptr));
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    Feed(full->get(), kHorizon, data);
  }
  // First half on a 16-shard, 2-lane grid; recovery on 4 shards, 8 lanes.
  {
    util::ThreadPool pool(2, 16);
    auto first = DurableFixedWindow::Open(SessionOpts(Dir("run")),
                                          FixedWindowOpts(&pool));
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    Feed(first->get(), 7, data);
  }
  {
    util::ThreadPool pool(8, 4);
    auto resumed = DurableFixedWindow::Open(SessionOpts(Dir("run")),
                                            FixedWindowOpts(&pool));
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    Feed(resumed->get(), kHorizon, data);
  }
  EXPECT_EQ(WalRecords(Dir("run")), WalRecords(Dir("full")));
}

TEST_F(SessionTest, CategoricalInterruptedRunMatchesUninterrupted) {
  const auto data = [](int64_t t) { return RoundSymbols(t, 3); };
  {
    auto full = DurableCategorical::Open(SessionOpts(Dir("full")),
                                         CategoricalOpts(nullptr));
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    Feed(full->get(), kHorizon, data);
  }
  for (int64_t stop : {int64_t{1}, int64_t{2}, int64_t{5}, int64_t{9},
                       kHorizon}) {
    const std::string dir = Dir("stop" + std::to_string(stop));
    {
      auto first = DurableCategorical::Open(SessionOpts(dir),
                                            CategoricalOpts(nullptr));
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      Feed(first->get(), stop, data);
    }
    {
      auto resumed = DurableCategorical::Open(SessionOpts(dir),
                                              CategoricalOpts(nullptr));
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      Feed(resumed->get(), kHorizon, data);
    }
    EXPECT_EQ(WalRecords(dir), WalRecords(Dir("full"))) << "stop=" << stop;
  }
}

TEST_F(SessionTest, TornWalTailIsTruncatedAndRunResumes) {
  const auto data = [](int64_t t) { return RoundBits(t); };
  {
    auto first = DurableCumulative::Open(SessionOpts(Dir("run")),
                                         CumulativeOpts(nullptr));
    ASSERT_TRUE(first.ok());
    Feed(first->get(), 6, data);
  }
  // A crash mid-append leaves half a frame.
  {
    std::ofstream wal(DurableSession::WalPath(Dir("run")),
                      std::ios::binary | std::ios::app);
    wal << std::string("\x40\x00\x00\x00\xAA", 5);
  }
  {
    auto resumed = DurableCumulative::Open(SessionOpts(Dir("run")),
                                           CumulativeOpts(nullptr));
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_TRUE((*resumed)->session().recovery().torn_tail_truncated);
    Feed(resumed->get(), kHorizon, data);
  }
  {
    auto full = DurableCumulative::Open(SessionOpts(Dir("full")),
                                        CumulativeOpts(nullptr));
    ASSERT_TRUE(full.ok());
    Feed(full->get(), kHorizon, data);
  }
  EXPECT_EQ(WalRecords(Dir("run")), WalRecords(Dir("full")));
}

TEST_F(SessionTest, ReplayDivergenceIsDataLoss) {
  const auto data = [](int64_t t) { return RoundBits(t); };
  {
    // snapshot_every = 0: recovery must replay the whole log, so frame 1
    // is inside the replay region.
    auto first = DurableCumulative::Open(SessionOpts(Dir("run"), 0),
                                         CumulativeOpts(nullptr));
    ASSERT_TRUE(first.ok());
    Feed(first->get(), 3, data);
  }
  // Forge the log: rewrite it with round 2's record altered but correctly
  // framed (valid CRC). Recovery cannot see this from the file alone —
  // the replay byte-compare is the only guard against published history
  // being rewritten.
  {
    auto records = WalRecords(Dir("run"));
    ASSERT_EQ(records.size(), 3u);
    records[1][records[1].size() - 1] ^= 1;
    ASSERT_EQ(::unlink(DurableSession::WalPath(Dir("run")).c_str()), 0);
    auto writer = WalWriter::Open(DurableSession::WalPath(Dir("run")));
    ASSERT_TRUE(writer.ok());
    for (const auto& r : records) ASSERT_TRUE((*writer)->Append(r).ok());
  }
  auto resumed = DurableCumulative::Open(SessionOpts(Dir("run"), 0),
                                         CumulativeOpts(nullptr));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_TRUE((*resumed)->ObserveRound(data(1)).ok());
  Status second = (*resumed)->ObserveRound(data(2));
  EXPECT_TRUE(second.IsDataLoss()) << second.ToString();
}

TEST_F(SessionTest, SnapshotAheadOfWalIsDataLoss) {
  const auto data = [](int64_t t) { return RoundBits(t); };
  {
    auto first = DurableCumulative::Open(SessionOpts(Dir("run"), 4),
                                         CumulativeOpts(nullptr));
    ASSERT_TRUE(first.ok());
    Feed(first->get(), 8, data);  // snapshot cut at round 8
  }
  // Lose WAL frames past round 5 (snapshot says 8): unrecoverable.
  {
    auto read = ReadWal(DurableSession::WalPath(Dir("run")),
                        WalReadMode::kStrict);
    ASSERT_TRUE(read.ok());
    uint64_t keep = 0;
    for (size_t i = 0; i < 5; ++i) keep += 8 + read->records[i].size();
    ASSERT_TRUE(
        TruncateWal(DurableSession::WalPath(Dir("run")), keep).ok());
  }
  auto resumed = DurableCumulative::Open(SessionOpts(Dir("run"), 4),
                                         CumulativeOpts(nullptr));
  EXPECT_TRUE(resumed.status().IsDataLoss()) << resumed.status().ToString();
  EXPECT_NE(resumed.status().message().find("missing"), std::string::npos);
}

TEST_F(SessionTest, SnapshotContradictingItsWalFrameIsDataLoss) {
  const auto data = [](int64_t t) { return RoundBits(t); };
  {
    auto first = DurableFixedWindow::Open(SessionOpts(Dir("run"), 4),
                                          FixedWindowOpts(nullptr));
    ASSERT_TRUE(first.ok());
    Feed(first->get(), 4, data);  // snapshot at the WAL head, round 4
  }
  // Re-wrap the snapshot (valid CRC) with one of round 4's ones targets
  // lowered by one. The target stays inside its group, so the payload
  // loads cleanly, but the rebuilt cohort no longer releases the
  // histogram the WAL holds for round 4; with no rounds to replay, only
  // the frame check stands between it and round 5.
  const std::string path = DurableSession::SnapshotPath(Dir("run"));
  auto snap = ReadSnapshot(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_EQ(snap->meta.round, 4);
  std::string& payload = snap->payload;
  // The payload ends with round 4's four ones targets, then the end tag.
  const size_t target = payload.size() - 8 - 4 * 8;
  int64_t ones = 0;
  std::memcpy(&ones, payload.data() + target, sizeof(ones));
  ASSERT_GT(ones, 0);
  --ones;
  std::memcpy(payload.data() + target, &ones, sizeof(ones));
  ASSERT_TRUE(WriteSnapshot(path, snap->meta, payload).ok());
  auto resumed = DurableFixedWindow::Open(SessionOpts(Dir("run"), 4),
                                          FixedWindowOpts(nullptr));
  EXPECT_TRUE(resumed.status().IsDataLoss()) << resumed.status().ToString();
}

TEST_F(SessionTest, SeedMismatchIsRefused) {
  const auto data = [](int64_t t) { return RoundBits(t); };
  {
    auto first = DurableCumulative::Open(SessionOpts(Dir("run")),
                                         CumulativeOpts(nullptr));
    ASSERT_TRUE(first.ok());
    Feed(first->get(), 4, data);  // snapshot at round 4
  }
  auto opts = CumulativeOpts(nullptr);
  opts.seed = kRunSeed + 1;
  auto resumed = DurableCumulative::Open(SessionOpts(Dir("run")), opts);
  EXPECT_TRUE(resumed.status().IsInvalidArgument())
      << resumed.status().ToString();
  EXPECT_NE(resumed.status().message().find("seed"), std::string::npos);
}

TEST_F(SessionTest, KindMismatchIsRefused) {
  const auto data = [](int64_t t) { return RoundBits(t); };
  {
    auto first = DurableCumulative::Open(SessionOpts(Dir("run")),
                                         CumulativeOpts(nullptr));
    ASSERT_TRUE(first.ok());
    Feed(first->get(), 4, data);
  }
  auto resumed = DurableFixedWindow::Open(SessionOpts(Dir("run")),
                                          FixedWindowOpts(nullptr));
  EXPECT_TRUE(resumed.status().IsInvalidArgument())
      << resumed.status().ToString();
  EXPECT_NE(resumed.status().message().find("kind"), std::string::npos);
}

TEST_F(SessionTest, CorruptSnapshotSurfacesDataLossNotSilentRestart) {
  const auto data = [](int64_t t) { return RoundBits(t); };
  {
    auto first = DurableCumulative::Open(SessionOpts(Dir("run")),
                                         CumulativeOpts(nullptr));
    ASSERT_TRUE(first.ok());
    Feed(first->get(), 4, data);
  }
  const std::string path = DurableSession::SnapshotPath(Dir("run"));
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  auto resumed = DurableCumulative::Open(SessionOpts(Dir("run")),
                                         CumulativeOpts(nullptr));
  EXPECT_TRUE(resumed.status().IsDataLoss()) << resumed.status().ToString();
}

TEST_F(SessionTest, WalSurvivesSnapshotsAsCompleteReleaseLog) {
  // Snapshots every round must never shorten the log: the WAL holds every
  // round from 1 to T afterwards.
  const auto data = [](int64_t t) { return RoundBits(t); };
  auto run = DurableCumulative::Open(SessionOpts(Dir("run"), 1),
                                     CumulativeOpts(nullptr));
  ASSERT_TRUE(run.ok());
  Feed(run->get(), kHorizon, data);
  auto records = WalRecords(Dir("run"));
  ASSERT_EQ(records.size(), static_cast<size_t>(kHorizon));
  for (int64_t t = 1; t <= kHorizon; ++t) {
    EXPECT_EQ(records[static_cast<size_t>(t - 1)]
                  .substr(0, records[static_cast<size_t>(t - 1)].find(' ')),
              std::to_string(t));
  }
}

}  // namespace
}  // namespace persist
}  // namespace longdp
