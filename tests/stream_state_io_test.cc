#include "stream/state_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace longdp {
namespace stream {
namespace state_io {
namespace {

std::string Bytes(const void* data, size_t size) {
  return std::string(static_cast<const char*>(data), size);
}

TEST(StateIoTest, DoubleRoundTripIsBitExact) {
  for (double v : {0.0, -0.0, 1.0, -3.5, 0.1, 1e-300, 1e300,
                   4.9406564584124654e-324, 3.141592653589793,
                   -2.718281828459045,
                   std::numeric_limits<double>::quiet_NaN()}) {
    std::stringstream s;
    WriteDouble(s, v);
    EXPECT_EQ(s.str().size(), 8u);
    auto r = Read<double>(s);
    ASSERT_TRUE(r.ok());
    // Raw IEEE-754 bits: the sign of zero and NaN payloads survive too.
    const double got = r.value();
    EXPECT_EQ(Bytes(&got, 8), Bytes(&v, 8)) << v;
  }
}

TEST(StateIoTest, InfinityRoundTrips) {
  std::stringstream s;
  WriteDouble(s, std::numeric_limits<double>::infinity());
  auto r = Read<double>(s);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(std::isinf(r.value()));
}

TEST(StateIoTest, TruncatedDoubleFails) {
  std::stringstream s("");
  EXPECT_FALSE(Read<double>(s).ok());
}

TEST(StateIoTest, IntVectorRoundTrip) {
  std::vector<int64_t> v = {0, -5, 123456789012345, 7};
  std::stringstream s;
  WriteArray(s, v.data(), v.size());
  EXPECT_EQ(s.str().size(), 8 * v.size());
  std::vector<int64_t> out;
  ASSERT_TRUE(ReadVector(s, v.size(), &out).ok());
  EXPECT_EQ(out, v);
}

TEST(StateIoTest, EmptyVectorsRoundTrip) {
  std::stringstream s;
  std::vector<int64_t> out = {1, 2, 3};
  ASSERT_TRUE(ReadVector(s, 0, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(StateIoTest, DoubleVectorRoundTrip) {
  std::vector<double> v = {0.5, -1e-9, 42.0};
  std::stringstream s;
  WriteArray(s, v.data(), v.size());
  std::vector<double> out;
  ASSERT_TRUE(ReadVector(s, v.size(), &out).ok());
  EXPECT_EQ(out, v);
}

TEST(StateIoTest, RejectsImplausibleSizes) {
  // A count outside its trusted bound is refused before it sizes anything.
  for (int64_t count : {int64_t{-1}, int64_t{1} << 32, int64_t{1} << 62}) {
    std::stringstream s;
    WriteInt(s, count);
    auto r = ReadIntIn(s, 0, kMaxRecords, "count");
    EXPECT_TRUE(r.status().IsInvalidArgument()) << count;
  }
  // A count within bounds but far past the bytes present costs one slice
  // of memory, then fails: memory follows the input, not the count.
  std::stringstream s(std::string(64, '\0'));
  std::vector<uint64_t> out;
  EXPECT_TRUE(ReadVector(s, uint64_t{1} << 62, &out).IsInvalidArgument());
  EXPECT_LE(out.capacity() * sizeof(uint64_t), kSliceBytes);
}

TEST(StateIoTest, RejectsTruncatedVectors) {
  std::vector<int64_t> two = {1, 2};  // the reader expects 3
  std::stringstream s;
  WriteArray(s, two.data(), two.size());
  std::vector<int64_t> out;
  EXPECT_FALSE(ReadVector(s, 3, &out).ok());
}

TEST(StateIoTest, MalformedDoubleIsRejectedNotZero) {
  // Regression (text era): a corrupted double restored as 0.0 — a
  // wrong-but-plausible state instead of a hard error. In binary the only
  // malformed double is a cut-short one; every length short of 8 bytes
  // must fail, never yield 0.0.
  const double v = 0.25;
  for (size_t len = 1; len < 8; ++len) {
    std::stringstream s(Bytes(&v, len));
    auto r = Read<double>(s);
    ASSERT_FALSE(r.ok()) << len;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << len;
  }
}

TEST(StateIoTest, CorruptedDoubleVectorFailsRestore) {
  const double v[2] = {1.5, 2.5};
  std::stringstream s(Bytes(v, 12));  // promises 2 doubles, holds 1.5
  std::vector<double> out;
  Status st = ReadVector(s, 2, &out);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

TEST(StateIoTest, ShortIntIsRejectedNotMisaligned) {
  // Fixed-width fields cannot misalign: a field cut short fails, and so
  // does every read after it, instead of shifting later fields into a
  // plausible-but-wrong state.
  const int64_t v = 12;
  for (size_t len = 1; len < 8; ++len) {
    std::stringstream s(Bytes(&v, len));
    EXPECT_FALSE(Read<int64_t>(s).ok()) << len;
    EXPECT_FALSE(Read<int64_t>(s).ok()) << len;
  }
  // Full-width values, negatives and extremes included, parse exactly.
  std::stringstream ok;
  WriteInt(ok, -42);
  WriteInt(ok, INT64_MAX);
  EXPECT_EQ(Read<int64_t>(ok).value(), -42);
  EXPECT_EQ(Read<int64_t>(ok).value(), INT64_MAX);
  // Range-checked reads name the field.
  std::stringstream range;
  WriteInt(range, 99);
  auto r = ReadIntIn(range, 0, 10, "window k");
  ASSERT_TRUE(r.status().IsInvalidArgument());
  EXPECT_NE(r.status().message().find("window k"), std::string::npos);
}

TEST(StateIoTest, ExpectTagMatchesExactlyOnce) {
  constexpr uint64_t kTag = Tag("test-end");
  std::stringstream s;
  WriteTag(s, kTag);
  WriteTag(s, kTag);
  EXPECT_EQ(s.str().substr(0, 8), "test-end");
  EXPECT_TRUE(ExpectTag(s, kTag, "test blob").ok());
  // Wrong word: an error naming the blob.
  std::stringstream wrong;
  WriteTag(wrong, Tag("not--it!"));
  Status st = ExpectTag(wrong, kTag, "test blob");
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("test blob"), std::string::npos);
  // Missing entirely (truncation): also a hard error.
  std::stringstream empty("");
  EXPECT_FALSE(ExpectTag(empty, kTag, "test blob").ok());
}

TEST(StateIoTest, ExpectEndRejectsTrailingBytes) {
  std::stringstream clean("");
  EXPECT_TRUE(ExpectEnd(clean, "test blob").ok());
  std::stringstream dirty(std::string(1, '\0'));
  Status st = ExpectEnd(dirty, "test blob");
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("test blob"), std::string::npos);
}

TEST(StateIoTest, MagicRefusesOtherVersionsByName) {
  std::stringstream ok;
  WriteMagic(ok, "fixed-window", 5);
  EXPECT_EQ(ok.str(), "longdp-fixed-window-checkpoint-v5\n");
  EXPECT_TRUE(ExpectMagic(ok, "fixed-window", 5).ok());
  // An older (text) version is a real checkpoint this build cannot read.
  std::stringstream v4("longdp-fixed-window-checkpoint-v4\n12 3 0.005\n");
  Status st = ExpectMagic(v4, "fixed-window", 5);
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("unsupported fixed-window checkpoint version "
                              "'longdp-fixed-window-checkpoint-v4'"),
            std::string::npos)
      << st.message();
  // Another family, garbage, or nothing at all is not a checkpoint.
  for (const char* other :
       {"longdp-cumulative-checkpoint-v5\n", "garbage", ""}) {
    std::stringstream s(other);
    Status bad = ExpectMagic(s, "fixed-window", 5);
    EXPECT_NE(bad.message().find("not a fixed-window checkpoint"),
              std::string::npos)
        << other << ": " << bad.message();
  }
}

TEST(StateIoTest, PlaneRoundTripsAndRejectsBitsPastTheLanes) {
  // 70 lanes pack to two words.
  const int64_t n = 70;
  const std::vector<uint64_t> plane = {0x0123456789ABCDEFULL, 0x2A};
  std::stringstream s;
  WritePlane(s, plane);
  const std::string bytes = s.str();
  EXPECT_EQ(bytes.size(), 2u * 8u);
  std::vector<uint64_t> back;
  ASSERT_TRUE(ReadPlane(s, n, &back).ok());
  EXPECT_EQ(back, plane);
  // A set bit in lane 70..127 of the last word is not canonical.
  std::string forged = bytes;
  forged[15] = static_cast<char>(0x80);  // top bit of word 1
  std::stringstream bad(forged);
  EXPECT_TRUE(ReadPlane(bad, n, &back).IsInvalidArgument());
  // A plane cut short is a truncated state.
  std::stringstream cut(bytes.substr(0, 12));
  EXPECT_TRUE(ReadPlane(cut, n, &back).IsInvalidArgument());
}

}  // namespace
}  // namespace state_io
}  // namespace stream
}  // namespace longdp
