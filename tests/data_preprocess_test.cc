#include "data/sipp_preprocess.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

namespace longdp {
namespace data {
namespace {

SippRawRecord Rec(int64_t hh, int64_t person, int64_t month, double ratio) {
  return SippRawRecord{hh, person, month, ratio};
}

constexpr double kMissing = std::numeric_limits<double>::quiet_NaN();

TEST(PreprocessTest, BinarizesRatioBelowOne) {
  std::vector<SippRawRecord> records;
  for (int64_t m = 1; m <= 3; ++m) {
    records.push_back(Rec(1, 1, m, m == 2 ? 0.8 : 1.5));
  }
  auto result = PreprocessSipp(records, 3).value();
  EXPECT_EQ(result.stats.households_kept, 1);
  EXPECT_EQ(result.dataset.Bit(0, 1), 0);
  EXPECT_EQ(result.dataset.Bit(0, 2), 1);  // ratio 0.8 < 1 -> in poverty
  EXPECT_EQ(result.dataset.Bit(0, 3), 0);
}

TEST(PreprocessTest, RatioExactlyOneIsNotPoverty) {
  std::vector<SippRawRecord> records = {Rec(1, 1, 1, 1.0)};
  auto result = PreprocessSipp(records, 1).value();
  EXPECT_EQ(result.dataset.Bit(0, 1), 0);
}

TEST(PreprocessTest, KeepsOneSeriesPerHousehold) {
  // Household 1 surveyed via two persons; only the first person's series
  // counts (paper step 1).
  std::vector<SippRawRecord> records;
  for (int64_t m = 1; m <= 2; ++m) {
    records.push_back(Rec(1, 101, m, 0.5));  // person 101: in poverty
    records.push_back(Rec(1, 102, m, 2.0));  // person 102: dropped
  }
  auto result = PreprocessSipp(records, 2).value();
  EXPECT_EQ(result.stats.households_kept, 1);
  EXPECT_EQ(result.stats.dropped_extra_person_series, 2);
  EXPECT_EQ(result.dataset.Bit(0, 1), 1);
  EXPECT_EQ(result.dataset.Bit(0, 2), 1);
}

TEST(PreprocessTest, DropsHouseholdsWithMissingValues) {
  std::vector<SippRawRecord> records;
  for (int64_t m = 1; m <= 2; ++m) records.push_back(Rec(1, 1, m, 0.5));
  records.push_back(Rec(2, 1, 1, 0.5));
  records.push_back(Rec(2, 1, 2, kMissing));  // household 2 has a missing
  auto result = PreprocessSipp(records, 2).value();
  EXPECT_EQ(result.stats.households_seen, 2);
  EXPECT_EQ(result.stats.households_kept, 1);
  EXPECT_EQ(result.stats.dropped_missing_value, 1);
  EXPECT_EQ(result.household_ids, (std::vector<int64_t>{1}));
}

TEST(PreprocessTest, DropsIncompleteSeries) {
  std::vector<SippRawRecord> records = {
      Rec(1, 1, 1, 0.5), Rec(1, 1, 2, 0.5), Rec(1, 1, 3, 0.5),
      Rec(2, 1, 1, 0.5), Rec(2, 1, 3, 0.5),  // household 2 misses month 2
  };
  auto result = PreprocessSipp(records, 3).value();
  EXPECT_EQ(result.stats.households_kept, 1);
  EXPECT_EQ(result.stats.dropped_incomplete_series, 1);
}

TEST(PreprocessTest, ToleratesExactDuplicates) {
  std::vector<SippRawRecord> records = {
      Rec(1, 1, 1, 0.5), Rec(1, 1, 1, 0.5),
  };
  auto result = PreprocessSipp(records, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().stats.households_kept, 1);
}

TEST(PreprocessTest, RejectsConflictingDuplicates) {
  std::vector<SippRawRecord> records = {
      Rec(1, 1, 1, 0.5), Rec(1, 1, 1, 2.0),
  };
  EXPECT_TRUE(PreprocessSipp(records, 1).status().IsInvalidArgument());
}

TEST(PreprocessTest, RejectsOutOfRangeMonth) {
  EXPECT_TRUE(
      PreprocessSipp({Rec(1, 1, 13, 0.5)}, 12).status().IsOutOfRange());
  EXPECT_TRUE(
      PreprocessSipp({Rec(1, 1, 0, 0.5)}, 12).status().IsOutOfRange());
}

TEST(PreprocessTest, RecordsOrderIndependence) {
  std::vector<SippRawRecord> fwd = {
      Rec(1, 1, 1, 0.5), Rec(1, 1, 2, 1.5), Rec(1, 1, 3, 0.5),
  };
  std::vector<SippRawRecord> rev(fwd.rbegin(), fwd.rend());
  auto a = PreprocessSipp(fwd, 3).value();
  auto b = PreprocessSipp(rev, 3).value();
  for (int64_t t = 1; t <= 3; ++t) {
    EXPECT_EQ(a.dataset.Bit(0, t), b.dataset.Bit(0, t));
  }
}

TEST(PreprocessTest, EmptyInputYieldsEmptyPanel) {
  auto result = PreprocessSipp({}, 12).value();
  EXPECT_EQ(result.stats.households_kept, 0);
  EXPECT_EQ(result.dataset.num_users(), 0);
  EXPECT_EQ(result.dataset.rounds(), 12);
}

TEST(LoadSippLongCsvTest, ParsesHeaderByName) {
  std::string path = ::testing::TempDir() + "/longdp_sipp_long.csv";
  {
    std::ofstream out(path);
    out << "SSUID,EXTRA,MONTHCODE,PNUM,THINCPOVT2\n";
    out << "11,x,1,1,0.75\n";
    out << "11,x,2,1,\n";       // missing ratio
    out << "12,x,1,2,1.25\n";
  }
  auto records = LoadSippLongCsv(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records.value().size(), 3u);
  EXPECT_EQ(records.value()[0].household_id, 11);
  EXPECT_EQ(records.value()[0].month, 1);
  EXPECT_DOUBLE_EQ(records.value()[0].poverty_ratio, 0.75);
  EXPECT_TRUE(std::isnan(records.value()[1].poverty_ratio));
  EXPECT_EQ(records.value()[2].person_id, 2);
  std::remove(path.c_str());
}

TEST(LoadSippLongCsvTest, RejectsNonNumericFields) {
  // Regression: a garbage SSUID used to strtoll-parse to 0, silently
  // merging unrelated rows into household 0 (one privacy unit).
  const char* kRows[] = {
      "notanid,1,1,0.75",  // garbage household id
      "11,1,1x,0.75",      // trailing garbage person id
      "11,,1,0.75",        // empty month
      "11,1,1,0.75oops",   // trailing garbage ratio
  };
  for (const char* row : kRows) {
    std::string path = ::testing::TempDir() + "/longdp_sipp_badnum.csv";
    {
      std::ofstream out(path);
      out << "SSUID,MONTHCODE,PNUM,THINCPOVT2\n" << row << "\n";
    }
    auto records = LoadSippLongCsv(path);
    EXPECT_TRUE(records.status().IsInvalidArgument())
        << "row '" << row << "' was accepted";
    std::remove(path.c_str());
  }
}

TEST(LoadSippLongCsvTest, RejectsMissingColumns) {
  std::string path = ::testing::TempDir() + "/longdp_sipp_long_bad.csv";
  {
    std::ofstream out(path);
    out << "SSUID,MONTHCODE\n11,1\n";
  }
  EXPECT_TRUE(LoadSippLongCsv(path).status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(PreprocessEndToEndTest, LongCsvThroughPipeline) {
  std::string path = ::testing::TempDir() + "/longdp_sipp_e2e.csv";
  {
    std::ofstream out(path);
    out << "SSUID,PNUM,MONTHCODE,THINCPOVT2\n";
    // Household 1: complete, poverty in month 2 only.
    out << "1,1,1,1.5\n1,1,2,0.4\n1,1,3,1.2\n";
    // Household 2: missing month 2 value.
    out << "2,1,1,0.9\n2,1,2,\n2,1,3,0.9\n";
    // Household 3: complete, never in poverty; second person ignored.
    out << "3,1,1,2.0\n3,1,2,2.0\n3,1,3,2.0\n";
    out << "3,9,1,0.1\n3,9,2,0.1\n3,9,3,0.1\n";
  }
  auto records = LoadSippLongCsv(path).value();
  auto result = PreprocessSipp(records, 3).value();
  EXPECT_EQ(result.stats.households_kept, 2);
  EXPECT_EQ(result.stats.dropped_missing_value, 1);
  EXPECT_EQ(result.stats.dropped_extra_person_series, 3);
  EXPECT_EQ(result.household_ids, (std::vector<int64_t>{1, 3}));
  EXPECT_EQ(result.dataset.Bit(0, 2), 1);
  for (int64_t t = 1; t <= 3; ++t) EXPECT_EQ(result.dataset.Bit(1, t), 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace data
}  // namespace longdp
