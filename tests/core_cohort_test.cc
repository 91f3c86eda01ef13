#include "core/synthetic_cohort.h"

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "stream/state_io.h"
#include "util/substream.h"
#include "util/thread_pool.h"

namespace longdp {
namespace core {
namespace {

// The binary census that extends ones[z] of overlap z's records by 1 and
// the rest of the group by 0.
std::vector<int64_t> OnesCensus(const SyntheticCohort& cohort,
                                const std::vector<int64_t>& ones) {
  std::vector<int64_t> census(2 * ones.size());
  for (size_t z = 0; z < ones.size(); ++z) {
    census[2 * z] = cohort.GroupSize(z) - ones[z];
    census[2 * z + 1] = ones[z];
  }
  return census;
}

TEST(CohortTest, CreateValidates) {
  EXPECT_FALSE(SyntheticCohort::Create(0, 2, {}).ok());
  EXPECT_FALSE(SyntheticCohort::Create(2, 2, {1, 2, 3}).ok());  // not 2^k
  EXPECT_FALSE(
      SyntheticCohort::Create(2, 2, {1, -1, 0, 0}).ok());  // negative
  EXPECT_FALSE(SyntheticCohort::Create(2, 1, {1}).ok());  // alphabet
  EXPECT_TRUE(SyntheticCohort::Create(2, 2, {1, 2, 3, 4}).ok());
}

TEST(CohortTest, CreateRefusesPastRecordCap) {
  // Record ids are 32-bit: a census summing past kMaxRecords is refused
  // before anything is allocated for it, overflowing sums included.
  constexpr int64_t kCap = stream::state_io::kMaxRecords;
  EXPECT_TRUE(SyntheticCohort::Create(2, 2, {kCap, 1, 0, 0})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(SyntheticCohort::Create(2, 2, {0, kCap / 2, 0, kCap / 2 + 2})
                  .status()
                  .IsInvalidArgument());
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  EXPECT_TRUE(SyntheticCohort::Create(2, 2, {kMax, kMax, kMax, kMax})
                  .status()
                  .IsInvalidArgument());
}

TEST(CohortTest, InitialHistogramMatchesCounts) {
  auto cohort = SyntheticCohort::Create(2, 2, {3, 0, 2, 5}).value();
  EXPECT_EQ(cohort.num_records(), 10);
  EXPECT_EQ(cohort.rounds(), 2);
  EXPECT_EQ(cohort.WindowHistogram(), (std::vector<int64_t>{3, 0, 2, 5}));
}

TEST(CohortTest, InitialHistoriesSpellPatterns) {
  auto cohort = SyntheticCohort::Create(2, 2, {1, 1, 1, 1}).value();
  // Records are created in pattern order 00, 01, 10, 11 (oldest bit first).
  EXPECT_EQ(cohort.Bit(0, 1), 0);
  EXPECT_EQ(cohort.Bit(0, 2), 0);
  EXPECT_EQ(cohort.Bit(1, 1), 0);
  EXPECT_EQ(cohort.Bit(1, 2), 1);
  EXPECT_EQ(cohort.Bit(2, 1), 1);
  EXPECT_EQ(cohort.Bit(2, 2), 0);
  EXPECT_EQ(cohort.Bit(3, 1), 1);
  EXPECT_EQ(cohort.Bit(3, 2), 1);
}

TEST(CohortTest, GroupSizesByOverlap) {
  auto cohort = SyntheticCohort::Create(2, 2, {3, 1, 2, 4}).value();
  // Overlap = newest bit for k=2: patterns 00,10 end in 0 (3+2=5);
  // 01,11 end in 1 (1+4=5).
  EXPECT_EQ(cohort.GroupSize(0), 5);
  EXPECT_EQ(cohort.GroupSize(1), 5);
}

TEST(CohortTest, AdvanceValidatesTargets) {
  auto cohort = SyntheticCohort::Create(2, 2, {3, 1, 2, 4}).value();
  const util::SubstreamRng stream(1, util::substream::kGeneric);
  EXPECT_TRUE(
      cohort.AdvanceRound({0, 0, 5}, stream).IsInvalidArgument());  // arity
  EXPECT_TRUE(cohort.AdvanceRound({0, 6, 5, 0}, stream)
                  .IsInvalidArgument());  // exceeds group
  EXPECT_TRUE(
      cohort.AdvanceRound({6, -1, 5, 0}, stream).IsInvalidArgument());
  EXPECT_TRUE(cohort.AdvanceRound({1, 1, 5, 0}, stream)
                  .IsInvalidArgument());  // does not cover the group
  EXPECT_EQ(cohort.rounds(), 2);
}

TEST(CohortTest, AdvanceFullGroupAndEmptyTargetsEdges) {
  // target == group (every record extends by 1) and target == 0 (every
  // record extends by 0) are the whole-group edges the batched primitives
  // must honor without mis-selecting.
  auto cohort = SyntheticCohort::Create(2, 2, {3, 1, 2, 4}).value();
  const util::SubstreamRng stream(7, util::substream::kGeneric);
  // Overlap 0 holds 5 records (patterns 00, 10), overlap 1 holds 5
  // (01, 11). Promote ALL of overlap 0, NONE of overlap 1.
  ASSERT_TRUE(
      cohort.AdvanceRound(OnesCensus(cohort, {5, 0}), stream).ok());
  // All former overlap-0 records now end in 1; all former overlap-1
  // records end in 0: histogram over (prev newest, new) pairs.
  EXPECT_EQ(cohort.WindowHistogram(), (std::vector<int64_t>{0, 5, 5, 0}));
  EXPECT_EQ(cohort.GroupSize(0), 5);
  EXPECT_EQ(cohort.GroupSize(1), 5);
}

TEST(CohortTest, AdvancePreservesPopulationAndConsistency) {
  auto cohort =
      SyntheticCohort::Create(3, 2, {2, 1, 0, 3, 1, 0, 2, 1}).value();
  const util::SubstreamRng stream(2, util::substream::kGeneric);
  std::vector<int64_t> before = cohort.WindowHistogram();
  // Overlap z gets groups from patterns {0z, 1z}. Choose any valid targets.
  std::vector<int64_t> targets(4);
  for (util::Pattern z = 0; z < 4; ++z) {
    targets[z] = cohort.GroupSize(z) / 2;
  }
  ASSERT_TRUE(
      cohort.AdvanceRound(OnesCensus(cohort, targets), stream).ok());
  std::vector<int64_t> after = cohort.WindowHistogram();
  // Consistency: p^{t}_{z0} + p^{t}_{z1} == group size at t-1 (= sum of
  // patterns ending in z).
  for (util::Pattern z = 0; z < 4; ++z) {
    int64_t group_before = before[z] + before[z | 4];  // 0z and 1z (k=3)
    EXPECT_EQ(after[(z << 1)] + after[(z << 1) | 1], group_before)
        << "z=" << z;
    EXPECT_EQ(after[(z << 1) | 1], targets[z]);
  }
  // Total population unchanged.
  int64_t total_before = 0, total_after = 0;
  for (auto c : before) total_before += c;
  for (auto c : after) total_after += c;
  EXPECT_EQ(total_before, total_after);
  EXPECT_EQ(cohort.rounds(), 4);
}

TEST(CohortTest, HistoriesAreAppendOnly) {
  // Record persistence: the prefix of every record is unchanged by
  // AdvanceRound (the paper's core consistency requirement).
  auto cohort = SyntheticCohort::Create(2, 2, {2, 2, 2, 2}).value();
  const util::SubstreamRng root(3, util::substream::kGeneric);
  std::vector<std::vector<int>> prefixes(8);
  for (int64_t r = 0; r < 8; ++r) {
    prefixes[r] = {cohort.Bit(r, 1), cohort.Bit(r, 2)};
  }
  for (int round = 0; round < 5; ++round) {
    std::vector<int64_t> targets = {cohort.GroupSize(0) / 2,
                                    cohort.GroupSize(1) / 2};
    ASSERT_TRUE(cohort
                    .AdvanceRound(OnesCensus(cohort, targets),
                                  root.Derive(static_cast<uint64_t>(round)))
                    .ok());
    for (int64_t r = 0; r < 8; ++r) {
      for (size_t j = 0; j < prefixes[r].size(); ++j) {
        ASSERT_EQ(cohort.Bit(r, static_cast<int64_t>(j + 1)), prefixes[r][j])
            << "record " << r << " round " << j + 1;
      }
      prefixes[r].push_back(cohort.Bit(r, cohort.rounds()));
    }
  }
}

TEST(CohortTest, HistogramTracksMaterializedRecords) {
  // The incrementally maintained histogram equals a recount from records.
  auto cohort =
      SyntheticCohort::Create(3, 2, {5, 3, 2, 7, 1, 0, 4, 6}).value();
  const util::SubstreamRng root(4, util::substream::kGeneric);
  for (int round = 0; round < 6; ++round) {
    std::vector<int64_t> targets(4);
    for (util::Pattern z = 0; z < 4; ++z) {
      targets[z] = (cohort.GroupSize(z) * (round + 1)) / 7;
    }
    ASSERT_TRUE(cohort
                    .AdvanceRound(OnesCensus(cohort, targets),
                                  root.Derive(static_cast<uint64_t>(round)))
                    .ok());
    std::vector<int64_t> recount(8, 0);
    int64_t t = cohort.rounds();
    for (int64_t r = 0; r < cohort.num_records(); ++r) {
      util::Pattern p = 0;
      for (int64_t tt = t - 2; tt <= t; ++tt) {
        p = (p << 1) | static_cast<util::Pattern>(cohort.Bit(r, tt));
      }
      ++recount[p];
    }
    EXPECT_EQ(cohort.WindowHistogram(), recount) << "round " << round;
  }
}

TEST(CohortTest, ToDatasetRoundTrip) {
  auto cohort = SyntheticCohort::Create(2, 2, {1, 2, 3, 4}).value();
  const util::SubstreamRng stream(5, util::substream::kGeneric);
  ASSERT_TRUE(
      cohort.AdvanceRound(OnesCensus(cohort, {2, 3}), stream).ok());
  auto ds = cohort.ToDataset(10).value();
  EXPECT_EQ(ds.num_users(), 10);
  EXPECT_EQ(ds.rounds(), 3);
  for (int64_t r = 0; r < 10; ++r) {
    for (int64_t t = 1; t <= 3; ++t) {
      EXPECT_EQ(ds.Bit(r, t), cohort.Bit(r, t));
    }
  }
  EXPECT_FALSE(cohort.ToDataset(2).ok());  // horizon < rounds
}

TEST(CohortTest, EmptyCohortIsLegal) {
  auto cohort = SyntheticCohort::Create(2, 2, {0, 0, 0, 0}).value();
  const util::SubstreamRng stream(6, util::substream::kGeneric);
  EXPECT_EQ(cohort.num_records(), 0);
  EXPECT_TRUE(cohort.AdvanceRound({0, 0, 0, 0}, stream).ok());
  EXPECT_EQ(cohort.rounds(), 3);
}

// ---------------------------------------------------------------------------
// Alphabets past binary. A = 3 packs each symbol into b = 2 planes and
// A = 5 into b = 3, whose codes 5..7 are digits >= A no record may hold.
// ---------------------------------------------------------------------------

// A random census splitting each of the cohort's overlap groups among its
// A children.
std::vector<int64_t> RandomCensus(const SyntheticCohort& cohort,
                                  util::SubstreamRng* rng) {
  const uint64_t a = static_cast<uint64_t>(cohort.alphabet());
  const uint64_t overlaps = cohort.WindowHistogram().size() / a;
  std::vector<int64_t> census(overlaps * a, 0);
  for (uint64_t z = 0; z < overlaps; ++z) {
    for (int64_t r = 0; r < cohort.GroupSize(z); ++r) {
      ++census[z * a + rng->UniformInt(a)];
    }
  }
  return census;
}

// Checks the packed history of every round: Symbol(r, t) is the plane
// bits, no symbol is outside the alphabet, no plane has a bit past m, and
// the last k symbols recount to WindowHistogram().
void ExpectPackedHistory(const SyntheticCohort& cohort,
                         const std::string& where) {
  const int a = cohort.alphabet();
  const int b = std::bit_width(static_cast<unsigned>(a - 1));
  const int64_t m = cohort.num_records();
  for (int64_t t = 1; t <= cohort.rounds(); ++t) {
    for (int p = 0; p < b; ++p) {
      const data::RoundView plane = cohort.Plane(t, p);
      ASSERT_EQ(plane.size(), m) << where;
      if ((m & 63) != 0) {
        EXPECT_EQ(plane.words()[m >> 6] >> (m & 63), 0u)
            << where << " tail bits of round " << t << " plane " << p;
      }
    }
    for (int64_t r = 0; r < m; ++r) {
      int symbol = 0;
      for (int p = 0; p < b; ++p) {
        symbol |= static_cast<int>(
                      (cohort.Plane(t, p).words()[r >> 6] >> (r & 63)) & 1)
                  << p;
      }
      ASSERT_EQ(cohort.Symbol(r, t), symbol) << where << " record " << r;
      ASSERT_LT(symbol, a) << where << " record " << r << " round " << t;
    }
  }
  std::vector<int64_t> recount(cohort.WindowHistogram().size(), 0);
  for (int64_t r = 0; r < m; ++r) {
    uint64_t s = 0;
    for (int64_t t = cohort.rounds() - cohort.window_k() + 1;
         t <= cohort.rounds(); ++t) {
      s = s * static_cast<uint64_t>(a) +
          static_cast<uint64_t>(cohort.Symbol(r, t));
    }
    ++recount[s];
  }
  EXPECT_EQ(recount, cohort.WindowHistogram()) << where;
}

TEST(CohortTest, CategoricalHistoriesArePackedAndAppendOnly) {
  for (int a : {3, 5}) {
    const std::string where = "A=" + std::to_string(a);
    util::SubstreamRng rng(static_cast<uint64_t>(a),
                           util::substream::kGeneric);
    // k = 2: A^2 patterns, seeded so m = 150 ends in a partial word.
    std::vector<int64_t> initial(static_cast<size_t>(a * a), 0);
    for (int r = 0; r < 150; ++r) ++initial[rng.UniformInt(initial.size())];
    auto cohort = SyntheticCohort::Create(2, a, initial).value();
    ASSERT_EQ(cohort.num_records(), 150) << where;
    EXPECT_EQ(cohort.WindowHistogram(), initial) << where;
    ExpectPackedHistory(cohort, where);
    const util::SubstreamRng root(0xCA7 + static_cast<uint64_t>(a),
                                  util::substream::kGeneric);
    std::vector<std::vector<int>> histories(150);
    for (int64_t r = 0; r < 150; ++r) {
      histories[r] = {cohort.Symbol(r, 1), cohort.Symbol(r, 2)};
    }
    for (int round = 0; round < 6; ++round) {
      const std::vector<int64_t> census = RandomCensus(cohort, &rng);
      ASSERT_TRUE(cohort
                      .AdvanceRound(census,
                                    root.Derive(static_cast<uint64_t>(round)))
                      .ok())
          << where;
      EXPECT_EQ(cohort.WindowHistogram(), census) << where;
      ExpectPackedHistory(cohort, where + " round " + std::to_string(round));
      for (int64_t r = 0; r < 150; ++r) {
        for (size_t j = 0; j < histories[r].size(); ++j) {
          ASSERT_EQ(cohort.Symbol(r, static_cast<int64_t>(j + 1)),
                    histories[r][j])
              << where << " record " << r << " round " << j + 1;
        }
        histories[r].push_back(cohort.Symbol(r, cohort.rounds()));
      }
    }
    EXPECT_EQ(cohort.rounds(), 8) << where;
  }
}

TEST(CohortTest, CategoricalCensusMustSplitEveryGroup) {
  for (int a : {3, 5}) {
    const std::string where = "A=" + std::to_string(a);
    // One record per pattern: every overlap group holds A records.
    auto cohort = SyntheticCohort::Create(
                      2, a, std::vector<int64_t>(static_cast<size_t>(a * a), 1))
                      .value();
    const util::SubstreamRng stream(9, util::substream::kGeneric);
    const std::vector<int64_t> valid(static_cast<size_t>(a * a), 1);
    std::vector<int64_t> overrun = valid;
    overrun[1] += 1;  // overlap 0's children sum to A + 1
    std::vector<int64_t> short_of_group = valid;
    short_of_group[static_cast<size_t>(a)] = 0;  // overlap 1 sums to A - 1
    std::vector<int64_t> moved = valid;
    moved[0] -= 1;  // a record moved from overlap 0 to overlap 1
    moved[static_cast<size_t>(a)] += 1;
    std::vector<int64_t> negative = valid;
    negative[0] = -1;
    negative[1] = 2;
    for (const auto& census : {overrun, short_of_group, moved, negative}) {
      EXPECT_TRUE(cohort.AdvanceRound(census, stream).IsInvalidArgument())
          << where;
    }
    EXPECT_TRUE(cohort.AdvanceRound(std::vector<int64_t>(3, 1), stream)
                    .IsInvalidArgument())
        << where << ": arity";
    EXPECT_EQ(cohort.rounds(), 2) << where;
    EXPECT_TRUE(cohort.AdvanceRound(valid, stream).ok()) << where;
    EXPECT_EQ(cohort.rounds(), 3) << where;
    EXPECT_TRUE(cohort.ToDataset(3).status().IsFailedPrecondition()) << where;
  }
}

TEST(CohortTest, ShardedAdvanceEqualsSerial) {
  // The regroup shards over record positions with per-shard symbol-bit
  // scratch, and the shard grid must not show in the result: every
  // history word, every group size, and (through the draws, which permute
  // the member arrays in place) every later advance equal the serial run.
  // m covers one record, one word, a word and a bit, and shard boundaries
  // inside words; the grids are threads x shards, and the small-m grids
  // fall back to one shard by the words-per-shard gate.
  struct Grid {
    int threads;
    int shards;
  };
  const std::vector<Grid> grids = {{1, 1}, {2, 2}, {3, 8}, {8, 16}};
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  for (const Grid& g : grids) {
    pools.push_back(std::make_unique<util::ThreadPool>(g.threads, g.shards));
  }
  constexpr int k = 3;
  constexpr int kRounds = 4;
  for (int a : {2, 3, 5}) {
    const int b = std::bit_width(static_cast<unsigned>(a - 1));
    const uint64_t bins = SyntheticCohort::NumBins(k, a).value();
    for (int64_t m : {1, 63, 64, 65, 1000, 4097}) {
      util::SubstreamRng census_rng(static_cast<uint64_t>(a * 10007 + m),
                                    util::substream::kGeneric);
      std::vector<int64_t> initial(bins, 0);
      for (int64_t r = 0; r < m; ++r) ++initial[census_rng.UniformInt(bins)];
      auto serial = SyntheticCohort::Create(k, a, initial).value();
      std::vector<SyntheticCohort> sharded(pools.size(), serial);
      const util::SubstreamRng root(static_cast<uint64_t>(m),
                                    util::substream::kCohort);
      for (int round = 0; round < kRounds; ++round) {
        const std::vector<int64_t> census =
            RandomCensus(serial, &census_rng);
        const util::SubstreamRng stream =
            root.Derive(static_cast<uint64_t>(round));
        ASSERT_TRUE(serial.AdvanceRound(census, stream).ok());
        for (size_t i = 0; i < pools.size(); ++i) {
          const std::string where =
              "A=" + std::to_string(a) + " m=" + std::to_string(m) +
              " grid=" + std::to_string(grids[i].threads) + "x" +
              std::to_string(grids[i].shards) + " round " +
              std::to_string(round);
          SyntheticCohort& cohort = sharded[i];
          ASSERT_TRUE(
              cohort.AdvanceRound(census, stream, pools[i].get()).ok())
              << where;
          ASSERT_EQ(cohort.rounds(), serial.rounds()) << where;
          for (int64_t t = 1; t <= serial.rounds(); ++t) {
            for (int p = 0; p < b; ++p) {
              const data::RoundView want = serial.Plane(t, p);
              const data::RoundView got = cohort.Plane(t, p);
              ASSERT_EQ(std::vector<uint64_t>(got.words(),
                                              got.words() + got.num_words()),
                        std::vector<uint64_t>(
                            want.words(), want.words() + want.num_words()))
                  << where << " history round " << t << " plane " << p;
            }
          }
          for (uint64_t z = 0; z < bins / static_cast<uint64_t>(a); ++z) {
            ASSERT_EQ(cohort.GroupSize(z), serial.GroupSize(z))
                << where << " group " << z;
          }
          EXPECT_EQ(cohort.WindowHistogram(), serial.WindowHistogram())
              << where;
        }
      }
      ExpectPackedHistory(serial, "serial A=" + std::to_string(a) +
                                      " m=" + std::to_string(m));
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace longdp
