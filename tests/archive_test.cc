#include "archive/exec.h"
#include "archive/format.h"
#include "archive/reader.h"
#include "archive/writer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/fixed_window_synthesizer.h"
#include "core/release_log.h"
#include "data/generators.h"
#include "data/longitudinal_dataset.h"
#include "persist/crc32c.h"
#include "query/spells.h"
#include "query/window_query.h"
#include "util/substream.h"

namespace longdp {
namespace archive {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string TempArchive(const std::string& name) {
  return ::testing::TempDir() + "/" + name + ".ldpa";
}

core::WindowRelease MakeWindow(int64_t t, int k, int64_t npad, int64_t n) {
  core::WindowRelease r;
  r.t = t;
  r.window_k = k;
  r.npad = npad;
  r.true_n = n;
  r.histogram.assign(size_t{1} << k, 0);
  for (size_t s = 0; s < r.histogram.size(); ++s) {
    r.histogram[s] = static_cast<int64_t>(t * 100 + s);
  }
  return r;
}

core::CumulativeRelease MakeCumulative(int64_t t, int64_t population) {
  core::CumulativeRelease r;
  r.t = t;
  r.thresholds = {population, population / 2, population / 4};
  return r;
}

core::CategoricalRelease MakeCategorical(int64_t t) {
  core::CategoricalRelease r;
  r.t = t;
  r.window_k = 2;
  r.alphabet = 3;
  r.npad = 7;
  r.true_n = 500;
  r.histogram.assign(9, 0);  // 3^2
  for (size_t s = 0; s < r.histogram.size(); ++s) {
    r.histogram[s] = static_cast<int64_t>(t * 10 + s + 7);
  }
  return r;
}

void ExpectLogsEqual(const core::ReleaseLog& a, const core::ReleaseLog& b) {
  ASSERT_EQ(a.window_releases().size(), b.window_releases().size());
  for (size_t i = 0; i < a.window_releases().size(); ++i) {
    const auto& x = a.window_releases()[i];
    const auto& y = b.window_releases()[i];
    EXPECT_EQ(x.t, y.t);
    EXPECT_EQ(x.window_k, y.window_k);
    EXPECT_EQ(x.npad, y.npad);
    EXPECT_EQ(x.true_n, y.true_n);
    EXPECT_EQ(x.histogram, y.histogram);
  }
  ASSERT_EQ(a.cumulative_releases().size(), b.cumulative_releases().size());
  for (size_t i = 0; i < a.cumulative_releases().size(); ++i) {
    EXPECT_EQ(a.cumulative_releases()[i].t, b.cumulative_releases()[i].t);
    EXPECT_EQ(a.cumulative_releases()[i].thresholds,
              b.cumulative_releases()[i].thresholds);
  }
  ASSERT_EQ(a.categorical_releases().size(), b.categorical_releases().size());
  for (size_t i = 0; i < a.categorical_releases().size(); ++i) {
    const auto& x = a.categorical_releases()[i];
    const auto& y = b.categorical_releases()[i];
    EXPECT_EQ(x.t, y.t);
    EXPECT_EQ(x.window_k, y.window_k);
    EXPECT_EQ(x.alphabet, y.alphabet);
    EXPECT_EQ(x.npad, y.npad);
    EXPECT_EQ(x.true_n, y.true_n);
    EXPECT_EQ(x.histogram, y.histogram);
  }
}

TEST(ArchiveTest, ReleaseLogRoundTripsFieldForField) {
  core::ReleaseLog log;
  ASSERT_TRUE(log.Append(MakeWindow(3, 3, 5, 100)).ok());
  ASSERT_TRUE(log.Append(MakeWindow(4, 3, 5, 100)).ok());
  ASSERT_TRUE(log.Append(MakeCumulative(3, 100)).ok());
  ASSERT_TRUE(log.Append(MakeCumulative(4, 100)).ok());
  ASSERT_TRUE(log.Append(MakeCategorical(3)).ok());

  const std::string path = TempArchive("roundtrip");
  {
    auto writer = ArchiveWriter::Create(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer.value().AppendReleaseLog("run0", log).ok());
    EXPECT_EQ(writer.value().num_entries(), 5);
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto label = reader.value().FindLabel("run0");
  ASSERT_TRUE(label.ok());
  auto rebuilt = reader.value().ToReleaseLog(label.value());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  ExpectLogsEqual(log, rebuilt.value());
  std::remove(path.c_str());
}

TEST(ArchiveTest, DegenerateReleasesRoundTrip) {
  // The archive preserves whatever the log holds, including shapes no
  // synthesizer would emit: an empty histogram (zero-byte payload), a
  // single-round single-release log, a zero-threshold row.
  core::ReleaseLog log;
  core::WindowRelease empty;
  empty.t = 1;
  empty.window_k = 1;
  empty.npad = 0;
  empty.true_n = 0;
  ASSERT_TRUE(log.Append(empty).ok());  // empty histogram
  core::CumulativeRelease one;
  one.t = 1;
  one.thresholds = {0};
  ASSERT_TRUE(log.Append(one).ok());

  const std::string path = TempArchive("degenerate");
  {
    auto writer = ArchiveWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().AppendReleaseLog("d", log).ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader.value().entries().size(), 2u);
  EXPECT_TRUE(reader.value().Values(reader.value().entries()[0]).empty());
  auto rebuilt = reader.value().ToReleaseLog(0);
  ASSERT_TRUE(rebuilt.ok());
  ExpectLogsEqual(log, rebuilt.value());
  std::remove(path.c_str());
}

TEST(ArchiveTest, HorizonOneSynthesizerLogRoundTrips) {
  // The smallest live synthesizer: horizon 1, k = 1, one observed round,
  // one release. Its captured log must survive the archive unchanged.
  util::SubstreamRng rng(11, util::substream::kGeneric);
  auto ds = data::BernoulliIid(40, 1, 0.5, &rng).value();
  core::FixedWindowSynthesizer::Options opt;
  opt.horizon = 1;
  opt.window_k = 1;
  opt.rho = kInf;
  opt.npad = 2;
  auto synth = core::FixedWindowSynthesizer::Create(opt).value();
  ASSERT_TRUE(synth->ObserveRound(ds.Round(1)).ok());
  core::ReleaseLog log;
  ASSERT_TRUE(log.Capture(*synth).ok());
  ASSERT_EQ(log.window_releases().size(), 1u);

  const std::string path = TempArchive("horizon1");
  {
    auto writer = ArchiveWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().AppendReleaseLog("h1", log).ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto rebuilt = reader.value().ToReleaseLog(0);
  ASSERT_TRUE(rebuilt.ok());
  ExpectLogsEqual(log, rebuilt.value());
  std::remove(path.c_str());
}

TEST(ArchiveTest, CohortRoundTripsBitForBit) {
  util::SubstreamRng rng(7, util::substream::kGeneric);
  auto panel = data::BernoulliIid(130, 9, 0.4, &rng).value();  // 3 words/round
  const std::string path = TempArchive("cohort");
  {
    auto writer = ArchiveWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().AppendCohort("panel", panel).ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader.value().entries().size(), 1u);
  const ArchiveEntry& e = reader.value().entries()[0];
  EXPECT_EQ(e.kind, EntryKind::kCohort);
  EXPECT_EQ(e.count, 130);
  EXPECT_EQ(e.rounds, 9);
  for (int64_t t = 1; t <= 9; ++t) {
    data::RoundView want = panel.Round(t);
    data::RoundView got = reader.value().CohortRound(e, t);
    ASSERT_EQ(got.size(), want.size());
    for (size_t w = 0; w < want.num_words(); ++w) {
      EXPECT_EQ(got.words()[w], want.words()[w]) << "t=" << t << " w=" << w;
    }
  }
  std::remove(path.c_str());
}

TEST(ArchiveTest, ZeroRecordCohortRoundTrips) {
  auto panel = data::LongitudinalDataset::Create(0, 3).value();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(panel.AppendRound({}).ok());
  }
  const std::string path = TempArchive("empty_cohort");
  {
    auto writer = ArchiveWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().AppendCohort("none", panel).ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const ArchiveEntry& e = reader.value().entries()[0];
  EXPECT_EQ(e.count, 0);
  EXPECT_EQ(e.rounds, 3);
  EXPECT_EQ(e.bytes, 0u);
  EXPECT_EQ(reader.value().CohortRound(e, 1).size(), 0);
  // Spell queries on the empty panel answer their n == 0 conventions.
  Exec exec(reader.value());
  EXPECT_EQ(exec.CohortEverHadSpell(e, 3, 2).value(), 0.0);
  EXPECT_EQ(exec.CohortMeanSpellLength(e, 3).value(), 0.0);
  std::remove(path.c_str());
}

TEST(ArchiveTest, MissingFileIsNotFound) {
  EXPECT_TRUE(
      ArchiveReader::Open("/no/such/archive.ldpa").status().IsNotFound());
}

TEST(ArchiveTest, NonArchiveFileIsInvalidArgument) {
  const std::string path = TempArchive("notanarchive");
  {
    std::ofstream out(path);
    out << "kind,t,k,alphabet,npad,true_n,index,value\n";
    out << "this is a release log CSV, not an archive; it is long enough\n";
    out << "to clear the minimum size check and fail on the magic.\n";
  }
  EXPECT_TRUE(ArchiveReader::Open(path).status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(ArchiveTest, UnfinishedArchiveDoesNotOpen) {
  const std::string path = TempArchive("unfinished");
  {
    auto writer = ArchiveWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(
        writer.value().AppendWindowRelease("w", MakeWindow(3, 2, 1, 50)).ok());
    // No Finish(): the file has payload but no footer/tail.
  }
  EXPECT_TRUE(ArchiveReader::Open(path).status().IsDataLoss());
  std::remove(path.c_str());
}

TEST(ArchiveTest, PayloadCorruptionIsDataLoss) {
  const std::string path = TempArchive("corrupt");
  {
    auto writer = ArchiveWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(
        writer.value().AppendWindowRelease("w", MakeWindow(3, 3, 1, 50)).ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  ASSERT_TRUE(ArchiveReader::Open(path).ok());
  {
    // Flip one byte inside the first payload block (offset kHeaderBytes).
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(kHeaderBytes) + 3);
    char b = 0;
    f.get(b);
    f.seekp(static_cast<std::streamoff>(kHeaderBytes) + 3);
    f.put(static_cast<char>(b ^ 0x40));
  }
  auto damaged = ArchiveReader::Open(path);
  ASSERT_FALSE(damaged.ok());
  EXPECT_TRUE(damaged.status().IsDataLoss()) << damaged.status().ToString();
  std::remove(path.c_str());
}

TEST(ArchiveTest, FooterCorruptionIsDataLoss) {
  const std::string path = TempArchive("corrupt_footer");
  uint64_t footer_offset = 0;
  {
    auto writer = ArchiveWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(
        writer.value().AppendWindowRelease("w", MakeWindow(3, 3, 1, 50)).ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  {
    auto reader = ArchiveReader::Open(path);
    ASSERT_TRUE(reader.ok());
    footer_offset = reader.value().footer_offset();
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(footer_offset) + 1);
    f.put('\x7f');
  }
  auto damaged = ArchiveReader::Open(path);
  ASSERT_FALSE(damaged.ok());
  EXPECT_TRUE(damaged.status().IsDataLoss()) << damaged.status().ToString();
  std::remove(path.c_str());
}

// Footer forgeries: `at` is an offset into the footer of a sealed archive
// holding one 8-bin window release labelled "w". Its layout is the label
// count (0), the label's length and byte (4), the entry count (9), then
// the entry (13): kind, label id, t, k, alphabet, npad, true_n, count (61),
// rounds, offset (77), bytes (85), crc (93).
constexpr size_t kLabelCountAt = 0;
constexpr size_t kEntryCountAt = 9;
constexpr size_t kCountAt = 61;
constexpr size_t kOffsetAt = 77;
constexpr size_t kBytesAt = 85;
constexpr size_t kCrcAt = 93;

/// Writes the one-entry archive above and returns its bytes.
std::string SealedWindowArchive(const std::string& path) {
  {
    auto writer = ArchiveWriter::Create(path);
    EXPECT_TRUE(writer.ok());
    EXPECT_TRUE(
        writer.value().AppendWindowRelease("w", MakeWindow(3, 3, 1, 50)).ok());
    EXPECT_TRUE(writer.value().Finish().ok());
  }
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

template <typename T>
void Put(std::string* bytes, size_t at, T value) {
  std::memcpy(bytes->data() + at, &value, sizeof(value));
}

/// Writes the forged `bytes` to `path` and expects both the reader and an
/// append to refuse them, the reader with DataLoss.
void ExpectForgeryIsDataLoss(const std::string& path,
                             const std::string& bytes) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto forged = ArchiveReader::Open(path);
  ASSERT_FALSE(forged.ok());
  EXPECT_TRUE(forged.status().IsDataLoss()) << forged.status().ToString();
  EXPECT_FALSE(ArchiveWriter::OpenForAppend(path).ok());
  std::remove(path.c_str());
}

/// Applies `forge` to the footer of `bytes` and recomputes the footer CRC
/// in the tail, so only the reader's own bounds checks stand in the way.
void ExpectForgedFooterIsDataLoss(
    const std::string& path, std::string bytes,
    const std::function<void(std::string* footer)>& forge) {
  const size_t tail = bytes.size() - kTailBytes;
  uint64_t footer_offset = 0;
  std::memcpy(&footer_offset, bytes.data() + tail, sizeof(footer_offset));
  std::string footer = bytes.substr(footer_offset, tail - footer_offset);
  ASSERT_EQ(footer.size(), kCrcAt + 4) << "footer layout changed";
  forge(&footer);
  bytes.replace(footer_offset, footer.size(), footer);
  Put(&bytes, tail + 8, persist::Crc32c(footer.data(), footer.size()));
  ExpectForgeryIsDataLoss(path, bytes);
}

TEST(ArchiveTest, ForgedEntryOffsetThatWrapsIsDataLoss) {
  // offset + bytes wraps past 2^64 to a value inside the file.
  const std::string path = TempArchive("forged_offset");
  ExpectForgedFooterIsDataLoss(
      path, SealedWindowArchive(path), [](std::string* footer) {
        Put(footer, kCountAt, int64_t{1} << 37);
        Put(footer, kOffsetAt, (uint64_t{0} - (uint64_t{1} << 40)));
        Put(footer, kBytesAt, uint64_t{1} << 40);
      });
}

TEST(ArchiveTest, ForgedLabelCountIsDataLoss) {
  const std::string path = TempArchive("forged_labels");
  ExpectForgedFooterIsDataLoss(path, SealedWindowArchive(path),
                               [](std::string* footer) {
                                 Put(footer, kLabelCountAt, UINT32_MAX);
                               });
}

TEST(ArchiveTest, ForgedEntryCountIsDataLoss) {
  const std::string path = TempArchive("forged_entries");
  ExpectForgedFooterIsDataLoss(path, SealedWindowArchive(path),
                               [](std::string* footer) {
                                 Put(footer, kEntryCountAt, UINT32_MAX);
                               });
}

TEST(ArchiveTest, ForgedValueCountWhoseByteLengthWrapsIsDataLoss) {
  // 8 * (2^61 + 1) wraps to 8: the entry claims 2^61 + 1 values over the
  // payload's first 8 bytes, whose CRC it carries.
  const std::string path = TempArchive("forged_count");
  const std::string bytes = SealedWindowArchive(path);
  const uint32_t head_crc = persist::Crc32c(bytes.data() + kHeaderBytes, 8);
  ExpectForgedFooterIsDataLoss(path, bytes, [&](std::string* footer) {
    Put(footer, kCountAt, (int64_t{1} << 61) + 1);
    Put(footer, kBytesAt, uint64_t{8});
    Put(footer, kCrcAt, head_crc);
  });
}

TEST(ArchiveTest, ForgedFooterOffsetThatWrapsIsDataLoss) {
  // A tail whose footer offset lies just below 2^64: offset plus the
  // footer and tail sizes wraps to a small number.
  const std::string path = TempArchive("forged_footer_offset");
  std::string bytes = SealedWindowArchive(path);
  Put(&bytes, bytes.size() - kTailBytes, uint64_t{0} - 8);
  ExpectForgeryIsDataLoss(path, bytes);
}

TEST(ArchiveTest, OpenForAppendExtendsWithoutRewriting) {
  const std::string path = TempArchive("append");
  {
    auto writer = ArchiveWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(
        writer.value().AppendWindowRelease("a", MakeWindow(3, 2, 1, 50)).ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  {
    auto writer = ArchiveWriter::OpenForAppend(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    EXPECT_EQ(writer.value().num_entries(), 1);
    ASSERT_TRUE(
        writer.value().AppendWindowRelease("b", MakeWindow(4, 2, 1, 50)).ok());
    ASSERT_TRUE(
        writer.value().AppendCumulativeRelease("a", MakeCumulative(4, 50)).ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader.value().entries().size(), 3u);
  EXPECT_EQ(reader.value().labels().size(), 2u);
  EXPECT_EQ(reader.value().label(reader.value().entries()[0].label_id), "a");
  EXPECT_EQ(reader.value().label(reader.value().entries()[1].label_id), "b");
  EXPECT_EQ(reader.value().entries()[2].kind, EntryKind::kCumulative);
  std::remove(path.c_str());
}

TEST(ArchiveTest, WriterRefusesUseAfterFinish) {
  const std::string path = TempArchive("finished");
  auto writer = ArchiveWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value().Finish().ok());
  EXPECT_TRUE(writer.value()
                  .AppendWindowRelease("w", MakeWindow(3, 2, 1, 50))
                  .IsFailedPrecondition());
  EXPECT_TRUE(writer.value().Finish().IsFailedPrecondition());
  std::remove(path.c_str());
}

TEST(ArchiveExecTest, SelectCountAndGroupBy) {
  const std::string path = TempArchive("exec_select");
  {
    auto writer = ArchiveWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    for (int64_t t = 3; t <= 6; ++t) {
      ASSERT_TRUE(
          writer.value().AppendWindowRelease("r0", MakeWindow(t, 3, 1, 50)).ok());
      ASSERT_TRUE(
          writer.value().AppendCumulativeRelease("r1", MakeCumulative(t, 50)).ok());
    }
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  Exec exec(reader.value());

  Exec::Filter all;
  EXPECT_EQ(exec.CountEntries(all), 8);

  Exec::Filter windows;
  windows.kind = EntryKind::kWindow;
  EXPECT_EQ(exec.CountEntries(windows), 4);

  Exec::Filter late;
  late.t_min = 5;
  EXPECT_EQ(exec.CountEntries(late), 4);

  Exec::Filter range;
  range.kind = EntryKind::kCumulative;
  range.t_min = 4;
  range.t_max = 5;
  auto selected = exec.Select(range);
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0]->t, 4);
  EXPECT_EQ(selected[1]->t, 5);

  auto by_label = exec.GroupCountByLabel(windows);
  ASSERT_EQ(by_label.size(), 2u);
  EXPECT_EQ(by_label[reader.value().FindLabel("r0").value()], 4);
  EXPECT_EQ(by_label[reader.value().FindLabel("r1").value()], 0);

  // Label filters over the interleaved appends: the label's entries only,
  // in append order; an id outside the dictionary matches nothing.
  Exec::Filter r1_range;
  r1_range.label_id = reader.value().FindLabel("r1").value();
  r1_range.t_min = 4;
  r1_range.t_max = 5;
  auto r1_selected = exec.Select(r1_range);
  ASSERT_EQ(r1_selected.size(), 2u);
  EXPECT_EQ(r1_selected[0], &reader.value().entries()[3]);
  EXPECT_EQ(r1_selected[1], &reader.value().entries()[5]);
  Exec::Filter r0_only;
  r0_only.label_id = reader.value().FindLabel("r0").value();
  EXPECT_EQ(exec.CountEntries(r0_only), 4);
  EXPECT_EQ(exec.GroupCountByLabel(r0_only),
            (std::vector<int64_t>{4, 0}));
  Exec::Filter unknown;
  unknown.label_id = 7;
  EXPECT_TRUE(exec.Select(unknown).empty());
  EXPECT_EQ(exec.CountEntries(unknown), 0);
  std::remove(path.c_str());
}

TEST(ArchiveExecTest, KindMismatchIsInvalidArgument) {
  const std::string path = TempArchive("exec_kind");
  {
    auto writer = ArchiveWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(
        writer.value().AppendCumulativeRelease("c", MakeCumulative(3, 50)).ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  Exec exec(reader.value());
  auto pred = query::MakeAllOnes(2);
  EXPECT_TRUE(exec.WindowCount(reader.value().entries()[0], *pred)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(exec.CohortWindowHistogram(reader.value().entries()[0], 3, 2)
                  .status()
                  .IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(ArchiveExecTest, CohortWindowHistogramMatchesDataset) {
  util::SubstreamRng rng(21, util::substream::kGeneric);
  auto panel = data::BernoulliIid(517, 10, 0.35, &rng).value();
  const std::string path = TempArchive("exec_hist");
  {
    auto writer = ArchiveWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().AppendCohort("p", panel).ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  Exec exec(reader.value());
  const ArchiveEntry& e = reader.value().entries()[0];
  for (int k : {1, 3, 5}) {
    for (int64_t t = k; t <= 10; t += 3) {
      auto got = exec.CohortWindowHistogram(e, t, k);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      auto want = panel.WindowHistogram(t, k);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(got.value(), want.value()) << "t=" << t << " k=" << k;
    }
  }
  EXPECT_TRUE(exec.CohortWindowHistogram(e, 11, 3).status().IsOutOfRange());
  EXPECT_TRUE(exec.CohortWindowHistogram(e, 2, 3).status().IsOutOfRange());
  std::remove(path.c_str());
}

TEST(ArchiveExecTest, CohortSpellQueriesMatchDatasetPath) {
  util::SubstreamRng rng(22, util::substream::kGeneric);
  auto panel = data::BernoulliIid(201, 8, 0.6, &rng).value();
  const std::string path = TempArchive("exec_spells");
  {
    auto writer = ArchiveWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().AppendCohort("p", panel).ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  Exec exec(reader.value());
  const ArchiveEntry& e = reader.value().entries()[0];
  for (int64_t t : {1, 5, 8}) {
    EXPECT_EQ(exec.CohortSpellLengthHistogram(e, t).value(),
              query::SpellLengthHistogram(panel, t).value());
    EXPECT_EQ(exec.CohortMeanSpellLength(e, t).value(),
              query::MeanSpellLength(panel, t).value());
    for (int64_t len : {1, 3}) {
      EXPECT_EQ(exec.CohortEverHadSpell(e, t, len).value(),
                query::EverHadSpell(panel, t, len).value());
      EXPECT_EQ(exec.CohortOngoingSpellAtLeast(e, t, len).value(),
                query::OngoingSpellAtLeast(panel, t, len).value());
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace archive
}  // namespace longdp
