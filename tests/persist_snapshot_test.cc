#include "persist/snapshot.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

namespace longdp {
namespace persist {
namespace {

// Each test gets a private directory under /tmp; removed on teardown.
class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/longdp_snapshot_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    // Best-effort cleanup; tests create at most a handful of files.
    std::string cmd = "rm -rf '" + dir_ + "'";
    if (std::system(cmd.c_str()) != 0) {
      ADD_FAILURE() << "cleanup of " << dir_ << " failed";
    }
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  static std::string Slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  static void Spit(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  static SnapshotMeta Meta() {
    SnapshotMeta meta;
    meta.kind = "cumulative";
    meta.format_version = 4;
    meta.seed = 0xDEADBEEFu;
    meta.round = 17;
    return meta;
  }

  std::string dir_;
};

TEST_F(SnapshotTest, RoundTripPreservesMetaAndPayload) {
  const std::string payload = "line one\nline two\nbinary \x01\x02\x03 ok\n";
  ASSERT_TRUE(WriteSnapshot(Path("snap"), Meta(), payload).ok());
  auto read = ReadSnapshot(Path("snap"));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->meta.kind, "cumulative");
  EXPECT_EQ(read->meta.format_version, 4);
  EXPECT_EQ(read->meta.seed, 0xDEADBEEFu);
  EXPECT_EQ(read->meta.round, 17);
  EXPECT_EQ(read->payload, payload);
  // The atomic dance must not leave its temp file behind.
  EXPECT_EQ(::access(Path("snap").c_str(), F_OK), 0);
  EXPECT_NE(::access(Path("snap.tmp").c_str(), F_OK), 0);
}

TEST_F(SnapshotTest, EmptyPayloadRoundTrips) {
  ASSERT_TRUE(WriteSnapshot(Path("snap"), Meta(), "").ok());
  auto read = ReadSnapshot(Path("snap"));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read->payload.empty());
}

TEST_F(SnapshotTest, MissingFileIsNotFound) {
  auto read = ReadSnapshot(Path("absent"));
  EXPECT_TRUE(read.status().IsNotFound()) << read.status().ToString();
}

TEST_F(SnapshotTest, VersionSkewIsInvalidArgumentNotDataLoss) {
  // A hypothetical older/newer snapshot format: recognizably a snapshot,
  // but not one this build can read.
  Spit(Path("snap"), "longdp-snapshot-v0 cumulative 4 1 17 3 00000000\nabc");
  auto read = ReadSnapshot(Path("snap"));
  EXPECT_TRUE(read.status().IsInvalidArgument()) << read.status().ToString();
  EXPECT_NE(read.status().message().find("unsupported snapshot version"),
            std::string::npos)
      << read.status().message();
}

TEST_F(SnapshotTest, ForeignFileIsInvalidArgument) {
  Spit(Path("snap"), "PKzip-or-whatever\nbytes");
  auto read = ReadSnapshot(Path("snap"));
  EXPECT_TRUE(read.status().IsInvalidArgument()) << read.status().ToString();
}

TEST_F(SnapshotTest, MalformedHeaderNumberIsInvalidArgument) {
  // "17x" for the round: the strict-parse sweep must reject the token, not
  // read 17 and leave "x" to corrupt the next field.
  Spit(Path("snap"), "longdp-snapshot-v1 cumulative 4 1 17x 3 00000000\nabc");
  auto read = ReadSnapshot(Path("snap"));
  EXPECT_TRUE(read.status().IsInvalidArgument()) << read.status().ToString();
}

TEST_F(SnapshotTest, NonCanonicalHeaderNumbersAreInvalidArgument) {
  // Each header number has one spelling: a sign, a leading zero, or a
  // checksum that is not eight lowercase hex digits would decode to the
  // same meta as a different byte string.
  const std::string payload = "abc";
  const std::string good = EncodeSnapshot(Meta(), payload);
  ASSERT_TRUE(DecodeSnapshot(good).ok());
  const std::string header = good.substr(0, good.find('\n'));
  const std::string crc = header.substr(header.rfind(' ') + 1);
  ASSERT_EQ(header, "longdp-snapshot-v1 cumulative 4 3735928559 17 3 " + crc);
  auto with = [&](const std::string& version, const std::string& seed,
                  const std::string& round, const std::string& size,
                  const std::string& checksum) {
    return "longdp-snapshot-v1 cumulative " + version + " " + seed + " " +
           round + " " + size + " " + checksum + "\n" + payload;
  };
  ASSERT_EQ(with("4", "3735928559", "17", "3", crc), good);
  std::string upper = crc;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  const std::vector<std::string> bad = {
      with("+4", "3735928559", "17", "3", crc),
      with("04", "3735928559", "17", "3", crc),
      with("-0", "3735928559", "17", "3", crc),
      with("4", "03735928559", "17", "3", crc),
      with("4", "+3735928559", "17", "3", crc),
      with("4", "18446744073709551616", "17", "3", crc),
      with("4", "3735928559", "+17", "3", crc),
      with("4", "3735928559", "017", "3", crc),
      with("4", "3735928559", "17", "0003", crc),
      with("4", "3735928559", "17", "9223372036854775808", crc),
      with("4", "3735928559", "17", "3", "+" + crc.substr(1)),
      with("4", "3735928559", "17", "3", "0x" + crc.substr(2)),
  };
  for (const std::string& bytes : bad) {
    auto decoded = DecodeSnapshot(bytes);
    EXPECT_TRUE(decoded.status().IsInvalidArgument())
        << bytes.substr(0, bytes.find('\n')) << ": "
        << decoded.status().ToString();
  }
  // Upper-case hex is refused too, unless the checksum has no letters.
  if (upper != crc) {
    EXPECT_TRUE(DecodeSnapshot(with("4", "3735928559", "17", "3", upper))
                    .status()
                    .IsInvalidArgument());
  }
  // Zero is spelled "0".
  SnapshotMeta zero = Meta();
  zero.format_version = 0;
  zero.seed = 0;
  zero.round = 0;
  auto decoded = DecodeSnapshot(EncodeSnapshot(zero, ""));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->meta.seed, 0u);
}

TEST_F(SnapshotTest, NegativeSeedIsInvalidArgument) {
  // A corrupted "-1" seed must not wrap to 2^64 - 1.
  Spit(Path("snap"), "longdp-snapshot-v1 cumulative 4 -1 17 3 00000000\nabc");
  auto read = ReadSnapshot(Path("snap"));
  EXPECT_TRUE(read.status().IsInvalidArgument()) << read.status().ToString();
}

TEST_F(SnapshotTest, TruncatedPayloadIsDataLoss) {
  ASSERT_TRUE(WriteSnapshot(Path("snap"), Meta(), "0123456789").ok());
  std::string bytes = Slurp(Path("snap"));
  Spit(Path("snap"), bytes.substr(0, bytes.size() - 4));
  auto read = ReadSnapshot(Path("snap"));
  EXPECT_TRUE(read.status().IsDataLoss()) << read.status().ToString();
  EXPECT_NE(read.status().message().find("truncated"), std::string::npos);
}

TEST_F(SnapshotTest, TrailingBytesArePinnedAsDataLoss) {
  ASSERT_TRUE(WriteSnapshot(Path("snap"), Meta(), "0123456789").ok());
  Spit(Path("snap"), Slurp(Path("snap")) + "junk");
  auto read = ReadSnapshot(Path("snap"));
  EXPECT_TRUE(read.status().IsDataLoss()) << read.status().ToString();
  EXPECT_NE(read.status().message().find("trailing"), std::string::npos);
}

TEST_F(SnapshotTest, BitFlippedPayloadIsDataLoss) {
  ASSERT_TRUE(WriteSnapshot(Path("snap"), Meta(), "0123456789").ok());
  std::string bytes = Slurp(Path("snap"));
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x10);
  Spit(Path("snap"), bytes);
  auto read = ReadSnapshot(Path("snap"));
  EXPECT_TRUE(read.status().IsDataLoss()) << read.status().ToString();
  EXPECT_NE(read.status().message().find("checksum"), std::string::npos);
}

TEST_F(SnapshotTest, FailedWriteLeavesOldSnapshotIntact) {
  // The atomic-replace contract: if writing the NEW snapshot fails, the
  // OLD one must still read back clean.
  ASSERT_TRUE(WriteSnapshot(Path("snap"), Meta(), "old payload").ok());
  // Force the failure by making the temp path an existing directory.
  ASSERT_EQ(::mkdir(Path("snap.tmp").c_str(), 0755), 0);
  SnapshotMeta meta = Meta();
  meta.round = 18;
  Status write = WriteSnapshot(Path("snap"), meta, "new payload");
  EXPECT_FALSE(write.ok());
  ASSERT_EQ(::rmdir(Path("snap.tmp").c_str()), 0);
  auto read = ReadSnapshot(Path("snap"));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->payload, "old payload");
  EXPECT_EQ(read->meta.round, 17);
}

TEST_F(SnapshotTest, DevFullWriteFailureIsIOError) {
  // ENOSPC injection via the kernel's always-full device. Environments
  // without it (non-Linux, stripped-down containers) skip.
  if (::access("/dev/full", W_OK) != 0) {
    GTEST_SKIP() << "/dev/full not available";
  }
  Status write = WriteSnapshotDirect("/dev/full", Meta(),
                                     std::string(1 << 16, 'x'));
  EXPECT_TRUE(write.IsIOError()) << write.ToString();
}

TEST_F(SnapshotTest, EncodeDecodeWithoutFilesystem) {
  const std::string payload(100, '\x7F');
  auto decoded = DecodeSnapshot(EncodeSnapshot(Meta(), payload));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->payload, payload);
  EXPECT_EQ(decoded->meta.round, 17);
}

}  // namespace
}  // namespace persist
}  // namespace longdp
