#include "util/bits.h"

#include <gtest/gtest.h>

namespace longdp {
namespace util {
namespace {

TEST(BitsTest, NumPatternsAndMask) {
  EXPECT_EQ(NumPatterns(1), 2u);
  EXPECT_EQ(NumPatterns(3), 8u);
  EXPECT_EQ(NumPatterns(10), 1024u);
  EXPECT_EQ(LowMask(3), 7u);
  EXPECT_EQ(LowMask(1), 1u);
}

TEST(BitsTest, PopcountMatchesPatterns) {
  EXPECT_EQ(Popcount(0), 0);
  EXPECT_EQ(Popcount(0b1011), 3);
  EXPECT_EQ(Popcount(LowMask(7)), 7);
}

TEST(BitsTest, PatternStringRoundTrip) {
  for (int k = 1; k <= 6; ++k) {
    for (Pattern p = 0; p < NumPatterns(k); ++p) {
      std::string s = PatternToString(p, k);
      ASSERT_EQ(s.size(), static_cast<size_t>(k));
      // Read the rendering back oldest bit first.
      Pattern parsed = 0;
      for (char c : s) {
        ASSERT_TRUE(c == '0' || c == '1') << s;
        parsed = (parsed << 1) | static_cast<Pattern>(c == '1');
      }
      EXPECT_EQ(parsed, p) << "k=" << k << " s=" << s;
    }
  }
}

TEST(BitsTest, PatternStringConvention) {
  // Oldest bit first: code 0b011 over k=3 renders "011" (oldest bit 0).
  EXPECT_EQ(PatternToString(0b011, 3), "011");
  EXPECT_EQ(PatternToString(0b100, 3), "100");
  EXPECT_EQ(PatternToString(0b110, 3), "110");
}

TEST(BitsTest, SlideAppendDropsOldest) {
  // Window "101" + bit 1 -> "011".
  EXPECT_EQ(SlideAppend(0b101, 3, 1), Pattern{0b011});
  // Window "111" + bit 0 -> "110".
  EXPECT_EQ(SlideAppend(0b111, 3, 0), Pattern{0b110});
  // Stays within k bits.
  for (Pattern p = 0; p < NumPatterns(4); ++p) {
    EXPECT_LT(SlideAppend(p, 4, 1), NumPatterns(4));
  }
}

TEST(BitsTest, OverlapIsRecentBits) {
  // "101": overlap (last 2 bits) is "01".
  EXPECT_EQ(Overlap(0b101, 3), Pattern{0b01});
  EXPECT_EQ(Overlap(0b110, 3), Pattern{0b10});
}

TEST(BitsTest, OverlapConsistentWithSlide) {
  // Sliding from p: new pattern's prefix (old bits) equals Overlap(p).
  const int k = 4;
  for (Pattern p = 0; p < NumPatterns(k); ++p) {
    for (int c = 0; c <= 1; ++c) {
      Pattern next = SlideAppend(p, k, c);
      EXPECT_EQ(next >> 1, Overlap(p, k));
      EXPECT_EQ(NewestBit(next), c);
    }
  }
}

TEST(BitsTest, OldestAndNewestBit) {
  EXPECT_EQ(OldestBit(0b100, 3), 1);
  EXPECT_EQ(OldestBit(0b011, 3), 0);
  EXPECT_EQ(NewestBit(0b110), 0);
  EXPECT_EQ(NewestBit(0b011), 1);
}

TEST(BitsTest, SuffixExtractsRecent) {
  // "1011", last 2 bits = "11".
  EXPECT_EQ(Suffix(0b1011, 2), Pattern{0b11});
  EXPECT_EQ(Suffix(0b1011, 4), Pattern{0b1011});
  EXPECT_EQ(Suffix(0b1011, 1), Pattern{0b1});
}

TEST(BitsTest, HasOnesRun) {
  EXPECT_TRUE(HasOnesRun(0b0110, 4, 2));
  EXPECT_FALSE(HasOnesRun(0b0101, 4, 2));
  EXPECT_TRUE(HasOnesRun(0b1111, 4, 4));
  EXPECT_FALSE(HasOnesRun(0b1110, 4, 4));
  EXPECT_TRUE(HasOnesRun(0b0000, 4, 0));  // run of 0 always true
  EXPECT_FALSE(HasOnesRun(0b1111, 4, 5));  // longer than window
}

TEST(BitsTest, ValidateWindow) {
  EXPECT_TRUE(ValidateWindow(1).ok());
  EXPECT_TRUE(ValidateWindow(12).ok());
  EXPECT_TRUE(ValidateWindow(30).ok());
  EXPECT_FALSE(ValidateWindow(0).ok());
  EXPECT_FALSE(ValidateWindow(-2).ok());
  EXPECT_FALSE(ValidateWindow(31).ok());
}

// Property sweep: the run/ones predicates agree with brute force over the
// rendered strings.
class BitsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BitsPropertyTest, RunDetectionMatchesString) {
  const int k = GetParam();
  for (Pattern p = 0; p < NumPatterns(k); ++p) {
    std::string s = PatternToString(p, k);
    for (int run = 1; run <= k; ++run) {
      bool expected = s.find(std::string(static_cast<size_t>(run), '1')) !=
                      std::string::npos;
      EXPECT_EQ(HasOnesRun(p, k, run), expected)
          << "k=" << k << " p=" << s << " run=" << run;
    }
    int ones = static_cast<int>(std::count(s.begin(), s.end(), '1'));
    EXPECT_EQ(Popcount(p), ones);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitsPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8));

}  // namespace
}  // namespace util
}  // namespace longdp
