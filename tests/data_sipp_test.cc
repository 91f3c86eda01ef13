#include "data/sipp_simulator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>

#include "data/sipp_csv.h"
#include "query/cumulative_query.h"
#include "query/window_query.h"
#include "util/substream.h"
#include "util/thread_pool.h"

namespace longdp {
namespace data {
namespace {

TEST(SippSimulatorTest, DefaultDimensionsMatchPaper) {
  util::SubstreamRng rng(1, util::substream::kGeneric);
  auto ds = SimulateSippDefault(&rng).value();
  EXPECT_EQ(ds.num_users(), 23374);
  EXPECT_EQ(ds.rounds(), 12);
}

TEST(SippSimulatorTest, KeyedOverloadMatchesDimensionsAndIsSeedPure) {
  util::ThreadPool pool(4, 8);
  auto serial = SimulateSippDefault(uint64_t{20240512}).value();
  auto sharded = SimulateSippDefault(20240512, &pool).value();
  EXPECT_EQ(serial.num_users(), 23374);
  EXPECT_EQ(serial.rounds(), 12);
  for (int64_t i = 0; i < serial.num_users(); i += 97) {
    for (int64_t t = 1; t <= 12; ++t) {
      ASSERT_EQ(serial.Bit(i, t), sharded.Bit(i, t))
          << "user " << i << " t " << t;
    }
  }
}

TEST(SippSimulatorTest, ValidatesChronicShare) {
  util::SubstreamRng rng(2, util::substream::kGeneric);
  SippOptions opt;
  opt.chronic_share = 1.5;
  EXPECT_FALSE(SimulateSipp(opt, &rng).ok());
  opt.chronic_share = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(SimulateSipp(opt, &rng).ok());
  EXPECT_FALSE(SimulateSipp(opt, uint64_t{2}).ok());
}

TEST(SippSimulatorTest, CalibrationMatchesPaperGroundTruth) {
  // The quarterly statistics the paper's Figure 1 plots: roughly 0.15 /
  // 0.10 / 0.09 / 0.07 for the four query types, and Fig 2's ~0.10 for
  // ">= 3 months by December". Generous tolerances — the bands, not the
  // digits, are what the reproduction needs.
  util::SubstreamRng rng(3, util::substream::kGeneric);
  auto ds = SimulateSippDefault(&rng).value();

  auto at_least_1 = query::MakeAtLeastOnes(3, 1);
  auto at_least_2 = query::MakeAtLeastOnes(3, 2);
  auto consec_2 = query::MakeConsecutiveOnes(3, 2);
  auto all_3 = query::MakeAllOnes(3);

  for (int64_t quarter_end : {3, 6, 9, 12}) {
    double q1 = query::EvaluateOnDataset(*at_least_1, ds, quarter_end).value();
    double q2 = query::EvaluateOnDataset(*at_least_2, ds, quarter_end).value();
    double qc = query::EvaluateOnDataset(*consec_2, ds, quarter_end).value();
    double q3 = query::EvaluateOnDataset(*all_3, ds, quarter_end).value();
    EXPECT_NEAR(q1, 0.15, 0.04) << "quarter end " << quarter_end;
    EXPECT_NEAR(q2, 0.10, 0.03);
    EXPECT_NEAR(qc, 0.09, 0.03);
    EXPECT_NEAR(q3, 0.07, 0.025);
    // Logical ordering of the four query types.
    EXPECT_GE(q1, q2);
    EXPECT_GE(q2, qc);
    EXPECT_GE(qc, q3);
  }

  double dec_3mo = query::EvaluateCumulativeOnDataset(ds, 12, 3).value();
  EXPECT_NEAR(dec_3mo, 0.10, 0.035);
}

TEST(SippSimulatorTest, CumulativeSeriesShapeMatchesFig2) {
  // Zero for t < 3, jumps at t = 3, grows slowly afterwards.
  util::SubstreamRng rng(5, util::substream::kGeneric);
  auto ds = SimulateSippDefault(&rng).value();
  EXPECT_EQ(query::EvaluateCumulativeOnDataset(ds, 1, 3).value(), 0.0);
  EXPECT_EQ(query::EvaluateCumulativeOnDataset(ds, 2, 3).value(), 0.0);
  double prev = 0.0;
  for (int64_t t = 3; t <= 12; ++t) {
    double v = query::EvaluateCumulativeOnDataset(ds, t, 3).value();
    EXPECT_GE(v, prev) << "t=" << t;
    prev = v;
  }
  EXPECT_GT(query::EvaluateCumulativeOnDataset(ds, 3, 3).value(), 0.04);
}

TEST(SippCsvTest, RoundTripPreservesBits) {
  util::SubstreamRng rng(7, util::substream::kGeneric);
  SippOptions opt;
  opt.num_households = 200;
  auto ds = SimulateSipp(opt, &rng).value();
  std::string path = ::testing::TempDir() + "/longdp_sipp_roundtrip.csv";
  ASSERT_TRUE(WriteSippBitsCsv(ds, path).ok());
  auto loaded = LoadSippBitsCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().num_users(), 200);
  ASSERT_EQ(loaded.value().rounds(), 12);
  for (int64_t i = 0; i < 200; ++i) {
    for (int64_t t = 1; t <= 12; ++t) {
      ASSERT_EQ(loaded.value().Bit(i, t), ds.Bit(i, t));
    }
  }
  std::remove(path.c_str());
}

TEST(SippCsvTest, FullDeviceWriteSurfacesAsIOError) {
  // Regression: WriteSippBitsCsv checked out.good() without flushing, so a
  // full disk was reported as OK while the panel never reached it.
  if (!std::ifstream("/dev/full").good()) {
    GTEST_SKIP() << "/dev/full not available";
  }
  util::SubstreamRng rng(7, util::substream::kGeneric);
  SippOptions opt;
  opt.num_households = 50;
  auto ds = SimulateSipp(opt, &rng).value();
  EXPECT_TRUE(WriteSippBitsCsv(ds, "/dev/full").IsIOError());
}

TEST(SippCsvTest, LoadsHeaderlessNoIdFile) {
  std::string path = ::testing::TempDir() + "/longdp_sipp_plain.csv";
  {
    std::ofstream out(path);
    out << "1,0,1\n0,0,0\n1,1,1\n";
  }
  auto ds = LoadSippBitsCsv(path);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds.value().num_users(), 3);
  EXPECT_EQ(ds.value().rounds(), 3);
  EXPECT_EQ(ds.value().Bit(0, 1), 1);
  EXPECT_EQ(ds.value().Bit(1, 2), 0);
  EXPECT_EQ(ds.value().Bit(2, 3), 1);
  std::remove(path.c_str());
}

TEST(SippCsvTest, HeaderWithNumericColumnNamesIsSkipped) {
  // "id,1,2,3": one non-numeric field is enough to mark the header even
  // when the period columns are named by bare numbers.
  std::string path = ::testing::TempDir() + "/longdp_sipp_numhdr.csv";
  {
    std::ofstream out(path);
    out << "id,1,2,3\n7,1,0,1\n9,0,0,0\n";
  }
  auto ds = LoadSippBitsCsv(path);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds.value().num_users(), 2);
  EXPECT_EQ(ds.value().rounds(), 3);
  EXPECT_EQ(ds.value().Bit(0, 1), 1);
  EXPECT_EQ(ds.value().Bit(0, 3), 1);
  EXPECT_EQ(ds.value().Bit(1, 2), 0);
  std::remove(path.c_str());
}

TEST(SippCsvTest, DashJoinedHeaderNamesAreNotNumeric) {
  // Regression: "2024-01" style names are digits and dashes only, which
  // the old any-mix check classified as numeric — the header row was then
  // ingested as data and the load failed on "non-binary value '2024-01'".
  std::string path = ::testing::TempDir() + "/longdp_sipp_datehdr.csv";
  {
    std::ofstream out(path);
    out << "2024-01,2024-02,2024-03\n1,0,1\n0,1,0\n";
  }
  auto ds = LoadSippBitsCsv(path);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds.value().num_users(), 2);
  EXPECT_EQ(ds.value().rounds(), 3);
  EXPECT_EQ(ds.value().Bit(0, 1), 1);
  EXPECT_EQ(ds.value().Bit(1, 2), 1);
  std::remove(path.c_str());
}

TEST(SippCsvTest, LoneDashAndDotFieldsMarkAHeader) {
  // Regression: "-" and "." contain no digit, yet the old check called
  // them numeric; a header row made only of such placeholders was ingested
  // as data instead of being skipped.
  std::string path = ::testing::TempDir() + "/longdp_sipp_punct.csv";
  {
    std::ofstream out(path);
    out << "-,.\n1,0\n0,1\n";
  }
  auto ds = LoadSippBitsCsv(path);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds.value().num_users(), 2);
  EXPECT_EQ(ds.value().rounds(), 2);
  EXPECT_EQ(ds.value().Bit(0, 1), 1);
  EXPECT_EQ(ds.value().Bit(1, 2), 1);
  std::remove(path.c_str());
}

TEST(SippCsvTest, AllBitRowsStillLoadHeaderless) {
  // Tightening the numeric check must not start misreading a headerless
  // all-bits file (or decimal data like "1.5", which stays numeric) as
  // having a header.
  std::string path = ::testing::TempDir() + "/longdp_sipp_nohdr2.csv";
  {
    std::ofstream out(path);
    out << "0,1\n1,1\n";
  }
  auto ds = LoadSippBitsCsv(path);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds.value().num_users(), 2);
  EXPECT_EQ(ds.value().rounds(), 2);
  EXPECT_EQ(ds.value().Bit(0, 2), 1);
  std::remove(path.c_str());
}

TEST(SippCsvTest, RejectsMalformedRows) {
  std::string path = ::testing::TempDir() + "/longdp_sipp_bad.csv";
  {
    std::ofstream out(path);
    out << "1,0,1\n0,0\n";  // ragged row
  }
  EXPECT_FALSE(LoadSippBitsCsv(path).ok());
  {
    std::ofstream out(path);
    out << "1,0,2\n";  // non-binary value
  }
  EXPECT_FALSE(LoadSippBitsCsv(path).ok());
  std::remove(path.c_str());
}

TEST(SippCsvTest, MissingFileIsIOError) {
  EXPECT_TRUE(
      LoadSippBitsCsv("/no/such/sipp.csv").status().IsIOError());
}

}  // namespace
}  // namespace data
}  // namespace longdp
