#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/categorical_synthesizer.h"
#include "core/cumulative_synthesizer.h"
#include "core/fixed_window_synthesizer.h"
#include "core/limits.h"
#include "data/generators.h"
#include "query/window_query.h"
#include "stream/budget_split.h"
#include "stream/counter_factory.h"
#include "stream/state_io.h"
#include "util/substream.h"

namespace longdp {
namespace core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Binary payload layout helpers: every scalar field is 8 bytes, after a
// magic line of the family's name.
size_t MagicBytes(const std::string& family, int version) {
  return stream::state_io::Magic(family, version).size() + 1;
}

// Returns `bytes` with the field at `offset` overwritten by `value`.
template <typename T>
std::string Patch(std::string bytes, size_t offset, T value) {
  std::memcpy(&bytes[offset], &value, sizeof(T));
  return bytes;
}

template <typename T>
T Peek(const std::string& bytes, size_t offset) {
  T value;
  std::memcpy(&value, &bytes[offset], sizeof(T));
  return value;
}

size_t Words(int64_t lanes) { return static_cast<size_t>((lanes + 63) / 64); }

FixedWindowSynthesizer::Options Opt(int64_t horizon, int k, double rho,
                                    int64_t npad = -1, uint64_t seed = 0) {
  FixedWindowSynthesizer::Options options;
  options.horizon = horizon;
  options.window_k = k;
  options.rho = rho;
  options.npad = npad;
  options.seed = seed;
  return options;
}

TEST(CheckpointTest, RoundTripPreservesEverything) {
  util::SubstreamRng rng(1, util::substream::kGeneric);
  auto ds = data::BernoulliIid(400, 12, 0.3, &rng).value();
  auto synth = FixedWindowSynthesizer::Create(Opt(12, 3, 0.02, -1, 31)).value();
  for (int64_t t = 1; t <= 7; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
  }
  std::stringstream stream;
  ASSERT_TRUE(synth->SaveCheckpoint(stream).ok());
  auto restored = FixedWindowSynthesizer::LoadCheckpoint(stream);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto& r = *restored.value();
  EXPECT_EQ(r.t(), 7);
  EXPECT_EQ(r.population(), 400);
  EXPECT_EQ(r.npad(), synth->npad());
  EXPECT_EQ(r.stats().releases, synth->stats().releases);
  EXPECT_NEAR(r.accountant().spent(), synth->accountant().spent(), 1e-12);
  EXPECT_EQ(r.SyntheticHistogram(), synth->SyntheticHistogram());
  // Cohort records identical bit for bit.
  ASSERT_EQ(r.cohort().num_records(), synth->cohort().num_records());
  for (int64_t rec = 0; rec < r.cohort().num_records(); ++rec) {
    for (int64_t t = 1; t <= r.cohort().rounds(); ++t) {
      ASSERT_EQ(r.cohort().Bit(rec, t), synth->cohort().Bit(rec, t));
    }
  }
}

TEST(CheckpointTest, RestoredRunContinuesCorrectly) {
  // Zero-noise path: a straight run and a checkpoint/restore run must end
  // with identical histograms (the consistency solve is deterministic at
  // the histogram level when sigma = 0).
  util::SubstreamRng rng(2, util::substream::kGeneric);
  auto ds = data::BernoulliIid(300, 10, 0.4, &rng).value();

  auto straight =
      FixedWindowSynthesizer::Create(Opt(10, 3, kInf, 20)).value();
  for (int64_t t = 1; t <= 10; ++t) {
    ASSERT_TRUE(straight->ObserveRound(ds.Round(t)).ok());
  }

  auto first_half =
      FixedWindowSynthesizer::Create(Opt(10, 3, kInf, 20)).value();
  for (int64_t t = 1; t <= 5; ++t) {
    ASSERT_TRUE(first_half->ObserveRound(ds.Round(t)).ok());
  }
  std::stringstream stream;
  ASSERT_TRUE(first_half->SaveCheckpoint(stream).ok());
  auto second_half = FixedWindowSynthesizer::LoadCheckpoint(stream).value();
  for (int64_t t = 6; t <= 10; ++t) {
    ASSERT_TRUE(second_half->ObserveRound(ds.Round(t)).ok());
  }
  EXPECT_EQ(second_half->SyntheticHistogram(),
            straight->SyntheticHistogram());
  EXPECT_EQ(second_half->t(), 10);
}

TEST(CheckpointTest, RestoredRunKeepsInvariantsUnderNoise) {
  util::SubstreamRng rng(3, util::substream::kGeneric);
  auto ds = data::BernoulliIid(1000, 12, 0.25, &rng).value();
  auto synth = FixedWindowSynthesizer::Create(Opt(12, 3, 0.01, -1, 37)).value();
  for (int64_t t = 1; t <= 6; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
  }
  std::stringstream stream;
  ASSERT_TRUE(synth->SaveCheckpoint(stream).ok());
  auto restored = FixedWindowSynthesizer::LoadCheckpoint(stream).value();
  std::vector<int64_t> prev = restored->SyntheticHistogram();
  int64_t population = restored->cohort().num_records();
  for (int64_t t = 7; t <= 12; ++t) {
    ASSERT_TRUE(restored->ObserveRound(ds.Round(t)).ok());
    auto cur = restored->SyntheticHistogram();
    // Consistency constraint across the restore boundary and beyond.
    for (util::Pattern z = 0; z < 4; ++z) {
      EXPECT_EQ(cur[(z << 1)] + cur[(z << 1) | 1], prev[z] + prev[z | 4])
          << "t=" << t << " z=" << z;
    }
    int64_t total = 0;
    for (int64_t c : cur) total += c;
    EXPECT_EQ(total, population);
    prev = cur;
  }
  // Budget fully consumed by the end, not double-charged.
  EXPECT_NEAR(restored->accountant().spent(), 0.01, 1e-10);
}

TEST(CheckpointTest, PreReleaseCheckpointWorks) {
  // Checkpointing before t = k (no cohort yet) must round-trip.
  util::SubstreamRng rng(4, util::substream::kGeneric);
  auto ds = data::BernoulliIid(50, 6, 0.5, &rng).value();
  auto synth = FixedWindowSynthesizer::Create(Opt(6, 4, 0.1, -1, 41)).value();
  ASSERT_TRUE(synth->ObserveRound(ds.Round(1)).ok());
  ASSERT_TRUE(synth->ObserveRound(ds.Round(2)).ok());
  std::stringstream stream;
  ASSERT_TRUE(synth->SaveCheckpoint(stream).ok());
  auto restored = FixedWindowSynthesizer::LoadCheckpoint(stream).value();
  EXPECT_EQ(restored->t(), 2);
  EXPECT_FALSE(restored->has_release());
  for (int64_t t = 3; t <= 6; ++t) {
    ASSERT_TRUE(restored->ObserveRound(ds.Round(t)).ok());
  }
  EXPECT_TRUE(restored->has_release());
}

TEST(CheckpointTest, FreshSynthesizerCheckpointWorks) {
  auto synth = FixedWindowSynthesizer::Create(Opt(5, 2, 0.1, -1, 43)).value();
  std::stringstream stream;
  ASSERT_TRUE(synth->SaveCheckpoint(stream).ok());
  auto restored = FixedWindowSynthesizer::LoadCheckpoint(stream).value();
  EXPECT_EQ(restored->t(), 0);
  EXPECT_EQ(restored->population(), -1);
}

TEST(CheckpointTest, RejectsGarbage) {
  std::stringstream empty;
  EXPECT_FALSE(FixedWindowSynthesizer::LoadCheckpoint(empty).ok());
  std::stringstream wrong("some other file\n1 2 3\n");
  EXPECT_FALSE(FixedWindowSynthesizer::LoadCheckpoint(wrong).ok());
  std::stringstream truncated(
      "longdp-fixed-window-checkpoint-v3\n12 3 0.005 124 0.05 7\n");
  EXPECT_FALSE(FixedWindowSynthesizer::LoadCheckpoint(truncated).ok());
  // v1 checkpoints predate substream cursors and v2 checkpoints predate
  // the persisted group order; both must be rejected by magic.
  std::stringstream v1(
      "longdp-fixed-window-checkpoint-v1\n12 3 0.005 124 0.05\n");
  EXPECT_FALSE(FixedWindowSynthesizer::LoadCheckpoint(v1).ok());
  std::stringstream v2(
      "longdp-fixed-window-checkpoint-v2\n12 3 0.005 124 0.05 7\n");
  EXPECT_FALSE(FixedWindowSynthesizer::LoadCheckpoint(v2).ok());
  // v4 was the last text format; v5 is binary with the cohort stored,
  // v6 stores only what the cohort is rebuilt from.
  for (const char* old : {"longdp-fixed-window-checkpoint-v4\n",
                          "longdp-fixed-window-checkpoint-v5\n"}) {
    std::stringstream text(std::string(old) + "12 3 0.005 124 0.05 7\n");
    EXPECT_FALSE(FixedWindowSynthesizer::LoadCheckpoint(text).ok()) << old;
  }
}

TEST(CheckpointTest, VersionSkewIsExplicitInvalidArgument) {
  // An old-version checkpoint — including a v4 text snapshot — must be
  // refused with a message naming the version problem, distinct from
  // "this is not a checkpoint at all".
  for (const char* old : {"longdp-fixed-window-checkpoint-v3\n",
                          "longdp-fixed-window-checkpoint-v4\n",
                          "longdp-fixed-window-checkpoint-v5\n"}) {
    std::stringstream text(std::string(old) + "12 3 0.005 124 0.05 7\n");
    auto restored = FixedWindowSynthesizer::LoadCheckpoint(text);
    ASSERT_FALSE(restored.ok());
    EXPECT_TRUE(restored.status().IsInvalidArgument())
        << restored.status().ToString();
    EXPECT_NE(restored.status().message().find("unsupported fixed-window "
                                               "checkpoint version"),
              std::string::npos)
        << restored.status().message();
  }
}

TEST(CheckpointTest, MissingEndSentinelIsRejected) {
  // Checkpoints end in a sentinel word; a checkpoint cut anywhere —
  // including exactly at a field boundary, which every field-level read
  // survives — must still fail to load.
  util::SubstreamRng rng(21, util::substream::kGeneric);
  auto ds = data::BernoulliIid(60, 6, 0.5, &rng).value();
  auto synth = FixedWindowSynthesizer::Create(Opt(6, 2, 0.1, -1, 83)).value();
  for (int64_t t = 1; t <= 4; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
  }
  std::stringstream stream;
  ASSERT_TRUE(synth->SaveCheckpoint(stream).ok());
  const std::string bytes = stream.str();
  const size_t pos = bytes.size() - 8;
  ASSERT_EQ(bytes.substr(pos), "fwin-end") << "checkpoint lacks its sentinel";
  std::stringstream truncated(bytes.substr(0, pos));
  EXPECT_FALSE(FixedWindowSynthesizer::LoadCheckpoint(truncated).ok());
  // And with the sentinel replaced by a forged word.
  std::string forged = bytes;
  forged.replace(pos, 8, "cuml-end");
  std::stringstream wrong(forged);
  EXPECT_FALSE(FixedWindowSynthesizer::LoadCheckpoint(wrong).ok());
}

// Fixed-window v6 layout: the magic line, then six option fields
// (horizon, k, rho, npad, beta, seed) and six state fields (t, n,
// releases, clamps, rounding draws, spent), the k window planes, the
// census p^k and each later round's 2^(k-1) ones targets.
size_t FwField(int index) {
  return MagicBytes("fixed-window",
                    FixedWindowSynthesizer::kCheckpointVersion) +
         8 * static_cast<size_t>(index);
}

TEST(CheckpointTest, CorruptSpentTokenIsRejectedNotZeroed) {
  // A corrupted spent budget used to restore as spent = 0.0: the accountant
  // forgot already-spent budget on restart. NaN, negative and infinite
  // spends must hard-fail instead.
  util::SubstreamRng rng(11, util::substream::kGeneric);
  auto ds = data::BernoulliIid(60, 6, 0.5, &rng).value();
  auto synth = FixedWindowSynthesizer::Create(Opt(6, 2, 0.1, -1, 47)).value();
  for (int64_t t = 1; t <= 3; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
  }
  ASSERT_GT(synth->accountant().spent(), 0.0);
  std::stringstream stream;
  ASSERT_TRUE(synth->SaveCheckpoint(stream).ok());
  ASSERT_EQ(Peek<double>(stream.str(), FwField(11)),
            synth->accountant().spent());
  for (double bad : {kNaN, -0.01, kInf, -kInf}) {
    std::stringstream corrupted(Patch(stream.str(), FwField(11), bad));
    auto restored = FixedWindowSynthesizer::LoadCheckpoint(corrupted);
    ASSERT_FALSE(restored.ok()) << "spent " << bad << " accepted";
  }
}

TEST(CheckpointTest, CorruptRhoTokenIsRejectedNotTruncated) {
  // A corrupted budget must not restore as a different (or disabled) one:
  // NaN and non-positive rho are refused.
  util::SubstreamRng rng(12, util::substream::kGeneric);
  auto ds = data::BernoulliIid(40, 4, 0.5, &rng).value();
  auto synth = FixedWindowSynthesizer::Create(Opt(4, 2, 0.1, -1, 53)).value();
  ASSERT_TRUE(synth->ObserveRound(ds.Round(1)).ok());
  std::stringstream stream;
  ASSERT_TRUE(synth->SaveCheckpoint(stream).ok());
  ASSERT_EQ(Peek<double>(stream.str(), FwField(2)), 0.1);
  for (double bad : {kNaN, 0.0, -0.1, -kInf}) {
    std::stringstream corrupted(Patch(stream.str(), FwField(2), bad));
    auto restored = FixedWindowSynthesizer::LoadCheckpoint(corrupted);
    ASSERT_FALSE(restored.ok()) << "rho " << bad << " accepted";
    EXPECT_TRUE(restored.status().IsInvalidArgument())
        << restored.status().ToString();
  }
}

TEST(CheckpointTest, RejectsTamperedTargets) {
  // The cohort is rebuilt from the stored targets, so a target the rebuild
  // cannot apply, or a census past the record bound, must be refused
  // before it moves or allocates a record.
  util::SubstreamRng rng(5, util::substream::kGeneric);
  auto ds = data::BernoulliIid(40, 6, 0.5, &rng).value();
  auto synth = FixedWindowSynthesizer::Create(Opt(6, 2, 0.1, -1, 59)).value();
  for (int64_t t = 1; t <= 4; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
  }
  std::stringstream stream;
  ASSERT_TRUE(synth->SaveCheckpoint(stream).ok());
  const std::string bytes = stream.str();
  // After the k = 2 window planes: the 4-bin census p^2, then the 2 ones
  // targets of rounds 3 and 4.
  const size_t census = FwField(12) + 2 * Words(40) * 8;
  const size_t round4 = census + 4 * 8 + 2 * 8;
  ASSERT_EQ(bytes.size(), round4 + 2 * 8 + 8);
  auto expect_rejected = [](const std::string& tampered, const char* what) {
    std::stringstream in(tampered);
    auto restored = FixedWindowSynthesizer::LoadCheckpoint(in);
    ASSERT_FALSE(restored.ok()) << what;
    EXPECT_TRUE(restored.status().IsInvalidArgument())
        << what << ": " << restored.status().ToString();
  };
  // Round 4's target for overlap 0 above the group it splits (which is at
  // most the whole cohort).
  expect_rejected(Patch(bytes, round4, synth->cohort().num_records() + 1),
                  "target above its group");
  expect_rejected(Patch(bytes, round4, int64_t{-1}), "negative target");
  // A negative census bin, and one past n + bins * (npad + ceil(40 sigma)).
  expect_rejected(Patch(bytes, census, int64_t{-1}), "negative census");
  expect_rejected(Patch(bytes, census, int64_t{1} << 40), "census past bound");
  // The untampered bytes still load.
  std::stringstream clean(bytes);
  EXPECT_TRUE(FixedWindowSynthesizer::LoadCheckpoint(clean).ok());
}

TEST(CheckpointTest, InfiniteRhoRoundTrips) {
  util::SubstreamRng rng(6, util::substream::kGeneric);
  auto ds = data::BernoulliIid(30, 4, 0.5, &rng).value();
  auto synth = FixedWindowSynthesizer::Create(Opt(4, 2, kInf, 0)).value();
  for (int64_t t = 1; t <= 3; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
  }
  std::stringstream stream;
  ASSERT_TRUE(synth->SaveCheckpoint(stream).ok());
  auto restored = FixedWindowSynthesizer::LoadCheckpoint(stream);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value()->SyntheticHistogram(),
            synth->SyntheticHistogram());
}

TEST(CheckpointTest, NoisyResumeReproducesRemainingReleaseLog) {
  // The checkpoint stores only the substream CURSORS (keys re-derive from
  // (seed, purpose, stream, round)), so a mid-run save/load must continue
  // the run byte-identically to the uninterrupted one even WITH noise.
  util::SubstreamRng rng(0xC0DE, util::substream::kGeneric);
  auto ds = data::BernoulliIid(600, 12, 0.3, &rng).value();
  auto straight =
      FixedWindowSynthesizer::Create(Opt(12, 3, 0.02, -1, 0xC0DE)).value();
  std::vector<std::vector<int64_t>> tail;
  for (int64_t t = 1; t <= 12; ++t) {
    ASSERT_TRUE(straight->ObserveRound(ds.Round(t)).ok());
    if (t >= 6) tail.push_back(straight->SyntheticHistogram());
  }

  auto half =
      FixedWindowSynthesizer::Create(Opt(12, 3, 0.02, -1, 0xC0DE)).value();
  for (int64_t t = 1; t <= 5; ++t) {
    ASSERT_TRUE(half->ObserveRound(ds.Round(t)).ok());
  }
  std::stringstream stream;
  ASSERT_TRUE(half->SaveCheckpoint(stream).ok());
  auto resumed = FixedWindowSynthesizer::LoadCheckpoint(stream).value();
  size_t i = 0;
  for (int64_t t = 6; t <= 12; ++t, ++i) {
    ASSERT_TRUE(resumed->ObserveRound(ds.Round(t)).ok());
    EXPECT_EQ(resumed->SyntheticHistogram(), tail[i]) << "t=" << t;
  }
  EXPECT_EQ(resumed->stats().rounding_draws, straight->stats().rounding_draws);
}

// ---------------------------------------------------------------------------
// Cumulative synthesizer checkpointing (counters rebuilt from the stored
// increments)
// ---------------------------------------------------------------------------

CumulativeSynthesizer::Options COpt(int64_t horizon, double rho,
                                    const std::string& counter = "tree",
                                    uint64_t seed = 0) {
  CumulativeSynthesizer::Options options;
  options.horizon = horizon;
  options.rho = rho;
  options.counter_factory = stream::MakeCounterFactory(counter).value();
  options.seed = seed;
  return options;
}

TEST(CumulativeCheckpointTest, RoundTripPreservesState) {
  util::SubstreamRng rng(11, util::substream::kGeneric);
  auto ds = data::BernoulliIid(500, 12, 0.3, &rng).value();
  auto synth = CumulativeSynthesizer::Create(COpt(12, 0.02, "tree", 61)).value();
  for (int64_t t = 1; t <= 7; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
  }
  std::stringstream stream;
  ASSERT_TRUE(synth->SaveCheckpoint(stream).ok());
  auto restored = CumulativeSynthesizer::LoadCheckpoint(stream);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto& r = *restored.value();
  EXPECT_EQ(r.t(), 7);
  EXPECT_EQ(r.population(), 500);
  EXPECT_EQ(r.released_thresholds(), synth->released_thresholds());
  EXPECT_EQ(r.SyntheticThresholdCounts(), synth->SyntheticThresholdCounts());
  for (int64_t rec = 0; rec < 500; ++rec) {
    for (int64_t t = 1; t <= 7; ++t) {
      ASSERT_EQ(r.Bit(rec, t), synth->Bit(rec, t));
    }
  }
  EXPECT_NEAR(r.accountant().spent(), 0.02, 1e-12);
}

TEST(CumulativeCheckpointTest, RestoredRunContinuesWithInvariants) {
  // Continue a restored run and require monotonization invariants across
  // the restore boundary — this exercises the serialized tree counter
  // internals (pending partial sums and their noisy values).
  util::SubstreamRng rng(13, util::substream::kGeneric);
  auto ds = data::BernoulliIid(800, 12, 0.25, &rng).value();
  auto synth = CumulativeSynthesizer::Create(COpt(12, 0.01, "tree", 67)).value();
  for (int64_t t = 1; t <= 6; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
  }
  std::stringstream stream;
  ASSERT_TRUE(synth->SaveCheckpoint(stream).ok());
  auto restored = CumulativeSynthesizer::LoadCheckpoint(stream).value();
  std::vector<int64_t> prev = restored->released_thresholds();
  for (int64_t t = 7; t <= 12; ++t) {
    ASSERT_TRUE(restored->ObserveRound(ds.Round(t)).ok());
    const auto& row = restored->released_thresholds();
    for (int64_t b = 1; b <= 12; ++b) {
      ASSERT_GE(row[b], prev[b]) << "t=" << t << " b=" << b;
      ASSERT_LE(row[b], prev[b - 1]) << "t=" << t << " b=" << b;
    }
    ASSERT_EQ(restored->SyntheticThresholdCounts(), row);
    prev = row;
  }
}

TEST(CumulativeCheckpointTest, ZeroNoiseRestoredRunMatchesStraightRun) {
  util::SubstreamRng rng(17, util::substream::kGeneric);
  auto ds = data::BernoulliIid(300, 10, 0.4, &rng).value();
  auto straight = CumulativeSynthesizer::Create(COpt(10, kInf)).value();
  for (int64_t t = 1; t <= 10; ++t) {
    ASSERT_TRUE(straight->ObserveRound(ds.Round(t)).ok());
  }
  auto half = CumulativeSynthesizer::Create(COpt(10, kInf)).value();
  for (int64_t t = 1; t <= 5; ++t) {
    ASSERT_TRUE(half->ObserveRound(ds.Round(t)).ok());
  }
  std::stringstream stream;
  ASSERT_TRUE(half->SaveCheckpoint(stream).ok());
  auto resumed = CumulativeSynthesizer::LoadCheckpoint(stream).value();
  for (int64_t t = 6; t <= 10; ++t) {
    ASSERT_TRUE(resumed->ObserveRound(ds.Round(t)).ok());
  }
  EXPECT_EQ(resumed->released_thresholds(),
            straight->released_thresholds());
}

TEST(CumulativeCheckpointTest, AllCounterImplementationsRoundTrip) {
  util::SubstreamRng rng(19, util::substream::kGeneric);
  auto ds = data::BernoulliIid(200, 8, 0.3, &rng).value();
  for (const auto& name : stream::RegisteredCounterNames()) {
    auto synth = CumulativeSynthesizer::Create(COpt(8, 0.05, name, 71)).value();
    for (int64_t t = 1; t <= 4; ++t) {
      ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok()) << name;
    }
    std::stringstream stream;
    ASSERT_TRUE(synth->SaveCheckpoint(stream).ok()) << name;
    auto restored = CumulativeSynthesizer::LoadCheckpoint(stream);
    ASSERT_TRUE(restored.ok()) << name << ": "
                               << restored.status().ToString();
    EXPECT_EQ(restored.value()->released_thresholds(),
              synth->released_thresholds())
        << name;
    for (int64_t t = 5; t <= 8; ++t) {
      ASSERT_TRUE(restored.value()->ObserveRound(ds.Round(t)).ok())
          << name;
      ASSERT_EQ(restored.value()->SyntheticThresholdCounts(),
                restored.value()->released_thresholds())
          << name;
    }
  }
}

TEST(CumulativeCheckpointTest, FreshSynthesizerRoundTrips) {
  auto synth = CumulativeSynthesizer::Create(COpt(5, 0.1, "tree", 73)).value();
  std::stringstream stream;
  ASSERT_TRUE(synth->SaveCheckpoint(stream).ok());
  auto restored = CumulativeSynthesizer::LoadCheckpoint(stream);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value()->t(), 0);
}

// Cumulative v7 layout: the magic line, horizon, rho, the budget-split and
// counter names (8-byte length + bytes each), seed, t, n, the weight
// planes, then the increment rows z^1..z^t (T counts each), then the end
// tag.
size_t CumulativeRows(const CumulativeSynthesizer::Options& options,
                      int64_t n) {
  const std::string split = stream::BudgetSplitName(options.split);
  const std::string counter = options.counter_factory->name();
  const auto horizon = static_cast<size_t>(options.horizon);
  const size_t planes = std::bit_width(horizon);
  return MagicBytes("cumulative", CumulativeSynthesizer::kCheckpointVersion) +
         8 + 8 + (8 + split.size()) + (8 + counter.size()) + 8 + 8 + 8 +
         planes * Words(n) * 8;
}

TEST(CumulativeCheckpointTest, CorruptRhoTokenIsRejectedNotTruncated) {
  util::SubstreamRng rng(13, util::substream::kGeneric);
  auto ds = data::BernoulliIid(40, 5, 0.5, &rng).value();
  auto synth = CumulativeSynthesizer::Create(COpt(5, 0.2, "tree", 79)).value();
  ASSERT_TRUE(synth->ObserveRound(ds.Round(1)).ok());
  std::stringstream stream;
  ASSERT_TRUE(synth->SaveCheckpoint(stream).ok());
  const size_t rho_at =
      MagicBytes("cumulative", CumulativeSynthesizer::kCheckpointVersion) + 8;
  ASSERT_EQ(Peek<double>(stream.str(), rho_at), 0.2);
  for (double bad : {kNaN, 0.0, -0.2, kMinRho / 2}) {
    std::stringstream corrupted(Patch(stream.str(), rho_at, bad));
    auto restored = CumulativeSynthesizer::LoadCheckpoint(corrupted);
    ASSERT_FALSE(restored.ok()) << "rho " << bad << " accepted";
    EXPECT_TRUE(restored.status().IsInvalidArgument())
        << restored.status().ToString();
  }
}

TEST(CumulativeCheckpointTest, VersionSkewIsExplicitInvalidArgument) {
  for (const char* old : {"longdp-cumulative-checkpoint-v3\n",
                          "longdp-cumulative-checkpoint-v4\n",
                          "longdp-cumulative-checkpoint-v5\n",
                          "longdp-cumulative-checkpoint-v6\n"}) {
    std::stringstream text(std::string(old) + "12 0.02 0 tree\n");
    auto restored = CumulativeSynthesizer::LoadCheckpoint(text);
    ASSERT_FALSE(restored.ok());
    EXPECT_TRUE(restored.status().IsInvalidArgument())
        << restored.status().ToString();
    EXPECT_NE(restored.status().message().find("version"), std::string::npos)
        << restored.status().message();
  }
}

TEST(CumulativeCheckpointTest, MissingEndSentinelIsRejected) {
  util::SubstreamRng rng(29, util::substream::kGeneric);
  auto ds = data::BernoulliIid(50, 6, 0.4, &rng).value();
  auto synth = CumulativeSynthesizer::Create(COpt(6, 0.05, "tree", 89)).value();
  for (int64_t t = 1; t <= 3; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
  }
  std::stringstream stream;
  ASSERT_TRUE(synth->SaveCheckpoint(stream).ok());
  const std::string bytes = stream.str();
  const size_t pos = bytes.size() - 8;
  ASSERT_EQ(bytes.substr(pos), "cuml-end") << "checkpoint lacks its sentinel";
  std::stringstream truncated(bytes.substr(0, pos));
  EXPECT_FALSE(CumulativeSynthesizer::LoadCheckpoint(truncated).ok());
}

TEST(CumulativeCheckpointTest, RejectsGarbageAndTampering) {
  std::stringstream empty;
  EXPECT_FALSE(CumulativeSynthesizer::LoadCheckpoint(empty).ok());
  std::stringstream wrong("longdp-fixed-window-checkpoint-v1\n");
  EXPECT_FALSE(CumulativeSynthesizer::LoadCheckpoint(wrong).ok());

  // Counters, rows and records are rebuilt from the stored increments,
  // which are checked first: each in [0, n], zero past its round, and each
  // threshold's column summing to the users the weight planes put at or
  // above it.
  util::SubstreamRng rng(23, util::substream::kGeneric);
  auto ds = data::BernoulliIid(50, 6, 0.5, &rng).value();
  const auto options = COpt(6, kInf);
  auto synth = CumulativeSynthesizer::Create(options).value();
  for (int64_t t = 1; t <= 3; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
  }
  std::stringstream stream;
  ASSERT_TRUE(synth->SaveCheckpoint(stream).ok());
  const std::string bytes = stream.str();
  auto expect_rejected = [](const std::string& tampered, const char* what) {
    std::stringstream in(tampered);
    auto restored = CumulativeSynthesizer::LoadCheckpoint(in);
    ASSERT_FALSE(restored.ok()) << what;
    EXPECT_TRUE(restored.status().IsInvalidArgument())
        << what << ": " << restored.status().ToString();
  };
  const size_t rows = CumulativeRows(options, 50);
  const size_t width = 6 * 8;  // T counts per row
  ASSERT_EQ(rows + 3 * width + 8, bytes.size());
  const auto z11 = Peek<int64_t>(bytes, rows);
  ASSERT_GT(z11, 0);
  expect_rejected(Patch(bytes, rows, int64_t{51}), "increment above n");
  expect_rejected(Patch(bytes, rows, int64_t{-1}), "negative increment");
  // z^1_2: nobody reaches weight 2 in one round.
  expect_rejected(Patch(bytes, rows + 8, int64_t{1}), "weight past round");
  // One unit moved out of round 1's z_1 leaves its column one short of the
  // users of weight >= 1.
  expect_rejected(Patch(bytes, rows, z11 - 1), "column sum below weights");
  // Bit 0 of the first user's weight flipped: the planes disagree with
  // the increments' sums.
  const size_t planes = rows - 3 * Words(50) * 8;
  expect_rejected(Patch(bytes, planes, Peek<uint64_t>(bytes, planes) ^ 1),
                  "weights disagree with the increments");
  std::stringstream clean(bytes);
  EXPECT_TRUE(CumulativeSynthesizer::LoadCheckpoint(clean).ok());
}

TEST(CumulativeCheckpointTest, NoisyResumeReproducesRemainingReleaseLog) {
  // Same property as the fixed-window test, per counter implementation:
  // the restore rebuilds every counter by replaying the stored increments,
  // so the resumed release rows match the uninterrupted run exactly under
  // real noise.
  util::SubstreamRng rng(0xC0DF, util::substream::kGeneric);
  auto ds = data::BernoulliIid(300, 10, 0.35, &rng).value();
  for (const auto& name : stream::RegisteredCounterNames()) {
    auto straight =
        CumulativeSynthesizer::Create(COpt(10, 0.02, name, 0xC0DF)).value();
    std::vector<std::vector<int64_t>> tail;
    for (int64_t t = 1; t <= 10; ++t) {
      ASSERT_TRUE(straight->ObserveRound(ds.Round(t)).ok()) << name;
      if (t >= 6) tail.push_back(straight->released_thresholds());
    }
    auto half =
        CumulativeSynthesizer::Create(COpt(10, 0.02, name, 0xC0DF)).value();
    for (int64_t t = 1; t <= 5; ++t) {
      ASSERT_TRUE(half->ObserveRound(ds.Round(t)).ok()) << name;
    }
    std::stringstream stream;
    ASSERT_TRUE(half->SaveCheckpoint(stream).ok()) << name;
    auto resumed = CumulativeSynthesizer::LoadCheckpoint(stream).value();
    size_t i = 0;
    for (int64_t t = 6; t <= 10; ++t, ++i) {
      ASSERT_TRUE(resumed->ObserveRound(ds.Round(t)).ok()) << name;
      EXPECT_EQ(resumed->released_thresholds(), tail[i])
          << name << " t=" << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Categorical window synthesizer checkpointing (resolved npad, the window
// bit planes, and the censuses the cohort is rebuilt from)
// ---------------------------------------------------------------------------

CategoricalWindowSynthesizer::Options KOpt(int64_t horizon, int k, int A,
                                           double rho, uint64_t seed = 0) {
  CategoricalWindowSynthesizer::Options options;
  options.horizon = horizon;
  options.window_k = k;
  options.alphabet = A;
  options.rho = rho;
  options.seed = seed;
  return options;
}

// Deterministic symbol rounds over alphabet A.
std::vector<std::vector<uint8_t>> SymbolRounds(int64_t n, int64_t T, int A,
                                               uint64_t seed) {
  util::SubstreamRng rng(seed, util::substream::kGeneric);
  std::vector<std::vector<uint8_t>> rounds;
  for (int64_t t = 0; t < T; ++t) {
    std::vector<uint8_t> round(static_cast<size_t>(n));
    for (auto& s : round) {
      s = static_cast<uint8_t>(rng.UniformInt(static_cast<uint64_t>(A)));
    }
    rounds.push_back(std::move(round));
  }
  return rounds;
}

TEST(CategoricalCheckpointTest, RoundTripPreservesState) {
  const auto rounds = SymbolRounds(300, 10, 3, 31);
  auto synth = CategoricalWindowSynthesizer::Create(KOpt(10, 2, 3, 0.05, 97))
                   .value();
  for (int64_t t = 1; t <= 6; ++t) {
    ASSERT_TRUE(synth->ObserveRound(rounds[static_cast<size_t>(t - 1)]).ok());
  }
  std::stringstream stream;
  ASSERT_TRUE(synth->SaveCheckpoint(stream).ok());
  auto restored = CategoricalWindowSynthesizer::LoadCheckpoint(stream);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto& r = *restored.value();
  EXPECT_EQ(r.t(), 6);
  EXPECT_EQ(r.population(), 300);
  EXPECT_EQ(r.npad(), synth->npad());
  EXPECT_EQ(r.synthetic_population(), synth->synthetic_population());
  EXPECT_EQ(r.stats().releases, synth->stats().releases);
  EXPECT_NEAR(r.accountant().spent(), synth->accountant().spent(), 1e-12);
  EXPECT_EQ(r.SyntheticHistogram(), synth->SyntheticHistogram());
  for (int64_t rec = 0; rec < r.synthetic_population(); ++rec) {
    for (int64_t t = 1; t <= 6; ++t) {
      ASSERT_EQ(r.Symbol(rec, t), synth->Symbol(rec, t))
          << "rec=" << rec << " t=" << t;
    }
  }
}

TEST(CategoricalCheckpointTest, NoisyResumeReproducesRemainingReleaseLog) {
  // Keyed draws + checkpointed state: the resumed run's histograms equal
  // the uninterrupted run's bit for bit, under real noise.
  const auto rounds = SymbolRounds(400, 12, 3, 37);
  auto straight =
      CategoricalWindowSynthesizer::Create(KOpt(12, 2, 3, 0.05, 0xCA7)).value();
  std::vector<std::vector<int64_t>> tail;
  for (int64_t t = 1; t <= 12; ++t) {
    ASSERT_TRUE(
        straight->ObserveRound(rounds[static_cast<size_t>(t - 1)]).ok());
    if (t >= 6) tail.push_back(straight->SyntheticHistogram());
  }
  auto half =
      CategoricalWindowSynthesizer::Create(KOpt(12, 2, 3, 0.05, 0xCA7)).value();
  for (int64_t t = 1; t <= 5; ++t) {
    ASSERT_TRUE(half->ObserveRound(rounds[static_cast<size_t>(t - 1)]).ok());
  }
  std::stringstream stream;
  ASSERT_TRUE(half->SaveCheckpoint(stream).ok());
  auto resumed = CategoricalWindowSynthesizer::LoadCheckpoint(stream).value();
  size_t i = 0;
  for (int64_t t = 6; t <= 12; ++t, ++i) {
    ASSERT_TRUE(
        resumed->ObserveRound(rounds[static_cast<size_t>(t - 1)]).ok());
    EXPECT_EQ(resumed->SyntheticHistogram(), tail[i]) << "t=" << t;
  }
  EXPECT_EQ(resumed->stats().remainder_draws,
            straight->stats().remainder_draws);
}

TEST(CategoricalCheckpointTest, PreReleaseAndFreshCheckpointsWork) {
  const auto rounds = SymbolRounds(50, 6, 4, 41);
  auto synth =
      CategoricalWindowSynthesizer::Create(KOpt(6, 3, 4, 0.1, 101)).value();
  // Fresh (t = 0).
  {
    std::stringstream stream;
    ASSERT_TRUE(synth->SaveCheckpoint(stream).ok());
    auto restored = CategoricalWindowSynthesizer::LoadCheckpoint(stream);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored.value()->t(), 0);
    EXPECT_EQ(restored.value()->population(), -1);
  }
  // Pre-release (t < k: windows tracked, no cohort yet).
  ASSERT_TRUE(synth->ObserveRound(rounds[0]).ok());
  ASSERT_TRUE(synth->ObserveRound(rounds[1]).ok());
  std::stringstream stream;
  ASSERT_TRUE(synth->SaveCheckpoint(stream).ok());
  auto restored = CategoricalWindowSynthesizer::LoadCheckpoint(stream).value();
  EXPECT_EQ(restored->t(), 2);
  EXPECT_FALSE(restored->has_release());
  for (int64_t t = 3; t <= 6; ++t) {
    ASSERT_TRUE(
        restored->ObserveRound(rounds[static_cast<size_t>(t - 1)]).ok());
  }
  EXPECT_TRUE(restored->has_release());
}

TEST(CategoricalCheckpointTest, VersionSkewIsExplicitInvalidArgument) {
  // v1 was the text format; v2 is binary with the cohort stored, v3 stores
  // only what the cohort is rebuilt from, with per-user window codes and
  // remainder-draw planes; v4 stores window bit planes instead and needs
  // no remainder bits.
  for (const char* old : {"longdp-categorical-checkpoint-v0\n",
                          "longdp-categorical-checkpoint-v1\n",
                          "longdp-categorical-checkpoint-v2\n",
                          "longdp-categorical-checkpoint-v3\n"}) {
    std::stringstream text(std::string(old) + "10 2 3 0.05\n");
    auto restored = CategoricalWindowSynthesizer::LoadCheckpoint(text);
    ASSERT_FALSE(restored.ok());
    EXPECT_TRUE(restored.status().IsInvalidArgument())
        << restored.status().ToString();
    EXPECT_NE(restored.status().message().find("version"), std::string::npos)
        << restored.status().message();
  }
}

// Categorical v4 layout: the magic line, seven option fields (horizon, k,
// A, rho, npad, beta, seed), six state fields (t, n, releases, clamps,
// remainder draws, spent), the k * bit_width(A - 1) window planes, and once
// released the A^k initial census, then each slide round's A^k census.
size_t KField(int index) {
  return MagicBytes("categorical",
                    CategoricalWindowSynthesizer::kCheckpointVersion) +
         8 * static_cast<size_t>(index);
}

TEST(CategoricalCheckpointTest, RejectsGarbageTamperingAndMissingSentinel) {
  std::stringstream empty;
  EXPECT_FALSE(CategoricalWindowSynthesizer::LoadCheckpoint(empty).ok());
  std::stringstream foreign("longdp-cumulative-checkpoint-v4\n");
  EXPECT_FALSE(CategoricalWindowSynthesizer::LoadCheckpoint(foreign).ok());

  const auto rounds = SymbolRounds(80, 6, 3, 43);
  auto synth =
      CategoricalWindowSynthesizer::Create(KOpt(6, 2, 3, 0.1, 103)).value();
  for (int64_t t = 1; t <= 4; ++t) {
    ASSERT_TRUE(synth->ObserveRound(rounds[static_cast<size_t>(t - 1)]).ok());
  }
  std::stringstream stream;
  ASSERT_TRUE(synth->SaveCheckpoint(stream).ok());
  const std::string bytes = stream.str();

  // Cut at the sentinel: every earlier field parses, the load still fails.
  const size_t pos = bytes.size() - 8;
  ASSERT_EQ(bytes.substr(pos), "catg-end");
  std::stringstream truncated(bytes.substr(0, pos));
  EXPECT_FALSE(
      CategoricalWindowSynthesizer::LoadCheckpoint(truncated).ok());

  // A tampered initial census seeds one record too many for the next
  // round's census to cover.
  // A = 3, k = 2: four window planes of two words each.
  const size_t counts = KField(13) + 4 * Words(80) * 8;
  const auto first = Peek<int64_t>(bytes, counts);
  std::stringstream corrupted(Patch(bytes, counts, first + 1));
  EXPECT_FALSE(
      CategoricalWindowSynthesizer::LoadCheckpoint(corrupted).ok());

  // A corrupted spent budget must hard-fail, not restore as 0.
  ASSERT_EQ(Peek<double>(bytes, KField(12)), synth->accountant().spent());
  for (double bad : {kNaN, -1.0, kInf}) {
    std::stringstream bad_spent(Patch(bytes, KField(12), bad));
    EXPECT_FALSE(
        CategoricalWindowSynthesizer::LoadCheckpoint(bad_spent).ok());
  }
}

TEST(CategoricalCheckpointTest, CensusContradictingItsGroupsIsRejected) {
  // Each slide round's census must split every overlap group of the round
  // before exactly: moving one record's worth of count from a child of
  // overlap 0 to a child of overlap 1 in the census at t contradicts the
  // group sizes the row at t - 1 fixed, and must be refused rather than
  // rebuild records whose last k-1 symbols are not their group's overlap.
  const int64_t n = 300;
  const auto rounds = SymbolRounds(n, 8, 3, 47);
  auto synth =
      CategoricalWindowSynthesizer::Create(KOpt(8, 2, 3, 0.5, 107)).value();
  for (int64_t t = 1; t <= 6; ++t) {
    ASSERT_TRUE(synth->ObserveRound(rounds[static_cast<size_t>(t - 1)]).ok());
  }
  std::stringstream stream;
  ASSERT_TRUE(synth->SaveCheckpoint(stream).ok());
  const std::string bytes = stream.str();
  // A = 3, k = 2: 9 bins and four window planes. The census at t = 6 sits
  // just before the end tag.
  const size_t census = bytes.size() - 8 - 9 * 8;
  ASSERT_EQ(census, KField(13) + 4 * Words(n) * 8 + 9 * 8 + 3 * 9 * 8);
  const auto child00 = Peek<int64_t>(bytes, census);
  ASSERT_GT(child00, 0);
  const size_t child10 = census + 3 * 8;
  const std::string moved =
      Patch(Patch(bytes, census, child00 - 1), child10,
            Peek<int64_t>(bytes, child10) + 1);
  std::stringstream in(moved);
  auto restored = CategoricalWindowSynthesizer::LoadCheckpoint(in);
  ASSERT_FALSE(restored.ok());
  EXPECT_TRUE(restored.status().IsInvalidArgument())
      << restored.status().ToString();
  // The untampered checkpoint still loads.
  std::stringstream clean(bytes);
  EXPECT_TRUE(CategoricalWindowSynthesizer::LoadCheckpoint(clean).ok());
}

// ---------------------------------------------------------------------------
// Rebuild equals live: a checkpoint stores no cohort, so the cohort its
// loader rebuilds must be the live run's record for record at every t —
// same histories, and the same group member order, which the continuation
// checks: rounds t+1..T promote the same record identities only if every
// group lists its members in the live order. Noisy settings with npad = 0
// exercise rounding and remainder draws and negative clamps.
// ---------------------------------------------------------------------------

constexpr int64_t kRebuildUsers = 120;
constexpr int64_t kRebuildHorizon = 12;

template <typename Synth>
std::string SaveBytes(const Synth& synth) {
  std::stringstream out;
  EXPECT_TRUE(synth.SaveCheckpoint(out).ok());
  return out.str();
}

/// Loads `bytes`, requires a byte-identical re-save, and returns the
/// restored synthesizer.
template <typename Synth>
std::unique_ptr<Synth> LoadExact(const std::string& bytes, int64_t t) {
  std::stringstream in(bytes);
  auto restored = Synth::LoadCheckpoint(in);
  EXPECT_TRUE(restored.ok()) << "t=" << t << ": "
                             << restored.status().ToString();
  if (!restored.ok()) return nullptr;
  EXPECT_EQ(SaveBytes(*restored.value()), bytes) << "t=" << t;
  return std::move(restored).value();
}

TEST(CheckpointRebuildTest, FixedWindowRebuildEqualsLiveAtEveryRound) {
  util::SubstreamRng rng(0x7EB, util::substream::kGeneric);
  auto ds =
      data::BernoulliIid(kRebuildUsers, kRebuildHorizon, 0.3, &rng).value();
  const auto options = Opt(kRebuildHorizon, 3, 0.05, 0, 0x7EB);
  auto live = FixedWindowSynthesizer::Create(options).value();
  std::vector<std::string> saved;
  for (int64_t t = 1; t <= kRebuildHorizon; ++t) {
    ASSERT_TRUE(live->ObserveRound(ds.Round(t)).ok());
    saved.push_back(SaveBytes(*live));
  }
  ASSERT_GT(live->stats().rounding_draws, 0);
  ASSERT_GT(live->stats().negative_clamps, 0);
  const SyntheticCohort& final_cohort = live->cohort();
  for (int64_t t = 1; t <= kRebuildHorizon; ++t) {
    auto restored = LoadExact<FixedWindowSynthesizer>(
        saved[static_cast<size_t>(t - 1)], t);
    ASSERT_NE(restored, nullptr);
    if (restored->has_release()) {
      const SyntheticCohort& cohort = restored->cohort();
      ASSERT_EQ(cohort.num_records(), final_cohort.num_records());
      ASSERT_EQ(cohort.rounds(), t);
      for (int64_t rec = 0; rec < cohort.num_records(); ++rec) {
        for (int64_t tt = 1; tt <= t; ++tt) {
          ASSERT_EQ(cohort.Bit(rec, tt), final_cohort.Bit(rec, tt))
              << "t=" << t << " rec=" << rec << " round " << tt;
        }
      }
    }
    for (int64_t tt = t + 1; tt <= kRebuildHorizon; ++tt) {
      ASSERT_TRUE(restored->ObserveRound(ds.Round(tt)).ok());
    }
    ASSERT_EQ(SaveBytes(*restored), saved.back()) << "resumed at t=" << t;
    const SyntheticCohort& resumed = restored->cohort();
    for (int64_t rec = 0; rec < final_cohort.num_records(); ++rec) {
      for (int64_t tt = std::max<int64_t>(t + 1, 3); tt <= kRebuildHorizon;
           ++tt) {
        ASSERT_EQ(resumed.Bit(rec, tt), final_cohort.Bit(rec, tt))
            << "resumed at t=" << t << " rec=" << rec << " round " << tt;
      }
    }
  }
}

TEST(CheckpointRebuildTest, CumulativeRebuildEqualsLiveAtEveryRound) {
  util::SubstreamRng rng(0x7EC, util::substream::kGeneric);
  auto ds =
      data::BernoulliIid(kRebuildUsers, kRebuildHorizon, 0.3, &rng).value();
  auto live =
      CumulativeSynthesizer::Create(COpt(kRebuildHorizon, 0.05, "tree", 0x7EC))
          .value();
  std::vector<std::string> saved;
  std::vector<std::vector<int64_t>> raw, released;
  for (int64_t t = 1; t <= kRebuildHorizon; ++t) {
    ASSERT_TRUE(live->ObserveRound(ds.Round(t)).ok());
    saved.push_back(SaveBytes(*live));
    raw.push_back(live->raw_thresholds());
    released.push_back(live->released_thresholds());
  }
  for (int64_t t = 1; t <= kRebuildHorizon; ++t) {
    auto restored = LoadExact<CumulativeSynthesizer>(
        saved[static_cast<size_t>(t - 1)], t);
    ASSERT_NE(restored, nullptr);
    // The replayed bank releases the live rows, raw and monotonized.
    ASSERT_EQ(restored->raw_thresholds(), raw[static_cast<size_t>(t - 1)]);
    ASSERT_EQ(restored->released_thresholds(),
              released[static_cast<size_t>(t - 1)]);
    for (int64_t rec = 0; rec < kRebuildUsers; ++rec) {
      for (int64_t tt = 1; tt <= t; ++tt) {
        ASSERT_EQ(restored->Bit(rec, tt), live->Bit(rec, tt))
            << "t=" << t << " rec=" << rec << " round " << tt;
      }
    }
    for (int64_t tt = t + 1; tt <= kRebuildHorizon; ++tt) {
      ASSERT_TRUE(restored->ObserveRound(ds.Round(tt)).ok());
    }
    ASSERT_EQ(SaveBytes(*restored), saved.back()) << "resumed at t=" << t;
    for (int64_t rec = 0; rec < kRebuildUsers; ++rec) {
      for (int64_t tt = t + 1; tt <= kRebuildHorizon; ++tt) {
        ASSERT_EQ(restored->Bit(rec, tt), live->Bit(rec, tt))
            << "resumed at t=" << t << " rec=" << rec << " round " << tt;
      }
    }
  }
}

TEST(CheckpointRebuildTest, CategoricalRebuildEqualsLiveAtEveryRound) {
  for (int A : {2, 3, 4}) {
    const auto rounds =
        SymbolRounds(kRebuildUsers, kRebuildHorizon, A, 0x7ED);
    auto options = KOpt(kRebuildHorizon, 2, A, 0.002, 0x7ED);
    options.npad = 0;
    auto live = CategoricalWindowSynthesizer::Create(options).value();
    std::vector<std::string> saved;
    for (int64_t t = 1; t <= kRebuildHorizon; ++t) {
      ASSERT_TRUE(
          live->ObserveRound(rounds[static_cast<size_t>(t - 1)]).ok());
      saved.push_back(SaveBytes(*live));
    }
    ASSERT_GT(live->stats().remainder_draws, 0) << "A=" << A;
    ASSERT_GT(live->stats().negative_clamps, 0) << "A=" << A;
    for (int64_t t = 1; t <= kRebuildHorizon; ++t) {
      auto restored = LoadExact<CategoricalWindowSynthesizer>(
          saved[static_cast<size_t>(t - 1)], t);
      ASSERT_NE(restored, nullptr) << "A=" << A;
      if (restored->has_release()) {
        ASSERT_EQ(restored->synthetic_population(),
                  live->synthetic_population());
        for (int64_t rec = 0; rec < live->synthetic_population(); ++rec) {
          for (int64_t tt = 1; tt <= t; ++tt) {
            ASSERT_EQ(restored->Symbol(rec, tt), live->Symbol(rec, tt))
                << "A=" << A << " t=" << t << " rec=" << rec << " round "
                << tt;
          }
        }
      }
      for (int64_t tt = t + 1; tt <= kRebuildHorizon; ++tt) {
        ASSERT_TRUE(
            restored->ObserveRound(rounds[static_cast<size_t>(tt - 1)]).ok());
      }
      ASSERT_EQ(SaveBytes(*restored), saved.back())
          << "A=" << A << " resumed at t=" << t;
      for (int64_t rec = 0; rec < live->synthetic_population(); ++rec) {
        for (int64_t tt = t + 1; tt <= kRebuildHorizon; ++tt) {
          ASSERT_EQ(restored->Symbol(rec, tt), live->Symbol(rec, tt))
              << "A=" << A << " resumed at t=" << t << " rec=" << rec
              << " round " << tt;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Layout pins: each payload's byte size equals its closed-form layout, so a
// regression to text, or to storing derived cohort state, fails here, not
// only in the benchmark.
// ---------------------------------------------------------------------------

TEST(CheckpointLayoutTest, PayloadSizesMatchClosedForm) {
  const int64_t n = 10000, T = 12;
  const int k = 3;
  util::SubstreamRng rng(0x51E, util::substream::kGeneric);
  auto ds = data::BernoulliIid(n, T, 0.3, &rng).value();
  const size_t words = Words(n);

  auto fw = FixedWindowSynthesizer::Create(Opt(T, k, 1.0, -1, 1)).value();
  auto cum = CumulativeSynthesizer::Create(COpt(T, 1.0, "tree", 2)).value();
  for (int64_t t = 1; t <= T; ++t) {
    ASSERT_TRUE(fw->ObserveRound(ds.Round(t)).ok());
    ASSERT_TRUE(cum->ObserveRound(ds.Round(t)).ok());
  }
  // magic, 12 scalar fields, k window planes, the 2^k census, T - k
  // rounds of 2^(k-1) ones targets, end tag.
  const size_t fw_bytes =
      MagicBytes("fixed-window", FixedWindowSynthesizer::kCheckpointVersion) +
      12 * 8 + k * words * 8 + 8 * 8 + (T - k) * 4 * 8 + 8;
  std::stringstream fw_out;
  ASSERT_TRUE(fw->SaveCheckpoint(fw_out).ok());
  EXPECT_EQ(fw_out.str().size(), fw_bytes);

  // Up to the rows (see CumulativeRows): T increment rows of T counts,
  // end tag.
  const size_t cum_bytes =
      CumulativeRows(COpt(T, 1.0, "tree", 2), n) + T * T * 8 + 8;
  std::stringstream cum_out;
  ASSERT_TRUE(cum->SaveCheckpoint(cum_out).ok());
  EXPECT_EQ(cum_out.str().size(), cum_bytes);

  const auto symbols = SymbolRounds(n, T, 3, 0x51F);
  auto cat =
      CategoricalWindowSynthesizer::Create(KOpt(T, k, 3, 1.0, 3)).value();
  for (int64_t t = 1; t <= T; ++t) {
    ASSERT_TRUE(cat->ObserveRound(symbols[static_cast<size_t>(t - 1)]).ok());
  }
  // magic, 13 scalar fields, k * 2 window planes (A = 3 takes two bits),
  // the 27-bin initial census, T - k rounds of a 27-bin census, end tag.
  const size_t cat_bytes =
      MagicBytes("categorical",
                 CategoricalWindowSynthesizer::kCheckpointVersion) +
      13 * 8 + k * 2 * words * 8 + 27 * 8 + (T - k) * 27 * 8 + 8;
  std::stringstream cat_out;
  ASSERT_TRUE(cat->SaveCheckpoint(cat_out).ok());
  EXPECT_EQ(cat_out.str().size(), cat_bytes);
}

}  // namespace
}  // namespace core
}  // namespace longdp
