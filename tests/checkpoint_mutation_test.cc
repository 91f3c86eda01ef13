// Mutation test for the binary checkpoint decoders: every synthesizer's
// LoadCheckpoint is fed truncations, single-bit flips, and 8-byte fields
// overwritten with forged counts, built from small mid-run checkpoints.
// Stream counters have no decoder of their own: the cumulative loader
// rebuilds its counter bank by replaying the stored increments, so the
// cumulative cases below also drive every counter advance a forged
// payload can reach.
//
// Oracle: the decoder returns non-OK, or state that re-saves to exactly
// the bytes it consumed; a forged release target or increment is always
// non-OK. No input may crash, hang, or size an allocation from an
// unchecked count (the ASan/UBSan job runs this suite).

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/categorical_synthesizer.h"
#include "core/cumulative_synthesizer.h"
#include "core/fixed_window_synthesizer.h"
#include "core/limits.h"
#include "data/generators.h"
#include "stream/budget_split.h"
#include "stream/counter_factory.h"
#include "stream/state_io.h"
#include "util/substream.h"

namespace longdp {
namespace {

/// Decodes `in` and, on success, re-encodes the restored state.
using Roundtrip = std::function<Status(std::istream& in, std::string* out)>;

/// Applies the oracle to one input.
void Check(const Roundtrip& roundtrip, const std::string& input,
           const std::string& what) {
  std::istringstream in(input);
  std::string resaved;
  const Status st = roundtrip(in, &resaved);
  if (!st.ok()) return;
  in.clear();
  const std::streamoff consumed = in.tellg();
  ASSERT_GE(consumed, 0) << what;
  ASSERT_EQ(resaved, input.substr(0, static_cast<size_t>(consumed)))
      << what << ": accepted state does not re-save to the bytes it read";
}

/// Runs every mutation of `bytes` (a valid encoding) through the oracle.
void MutateAll(const Roundtrip& roundtrip, const std::string& bytes,
               const std::string& name) {
  // The valid encoding itself round-trips exactly.
  {
    std::istringstream in(bytes);
    std::string resaved;
    ASSERT_TRUE(roundtrip(in, &resaved).ok()) << name;
    ASSERT_EQ(resaved, bytes) << name;
  }
  // Every truncation: a strict prefix lacks the end sentinel.
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::istringstream in(bytes.substr(0, len));
    std::string resaved;
    EXPECT_FALSE(roundtrip(in, &resaved).ok())
        << name << ": truncation to " << len << " bytes accepted";
  }
  // A single-bit flip at every byte offset; the bit is drawn from a keyed
  // substream so the corpus is fixed.
  const util::SubstreamRng flips(0xF11B, util::substream::kGeneric);
  for (size_t at = 0; at < bytes.size(); ++at) {
    util::SubstreamRng bit = flips.Derive(at);
    std::string mutant = bytes;
    mutant[at] = static_cast<char>(mutant[at] ^ (1 << bit.UniformInt(8)));
    Check(roundtrip, mutant, name + " bit flip at " + std::to_string(at));
  }
  // Every 8-byte window overwritten with a forged count: this covers each
  // length, count, and size field wherever it sits.
  for (uint64_t forged :
       {uint64_t{1} << 31, uint64_t{1} << 32, uint64_t{1} << 62}) {
    for (size_t at = 0; at + 8 <= bytes.size(); ++at) {
      std::string mutant = bytes;
      std::memcpy(&mutant[at], &forged, sizeof(forged));
      Check(roundtrip, mutant,
            name + " count " + std::to_string(forged) + " at " +
                std::to_string(at));
    }
  }
}

/// The release targets (or cumulative increments) a cohort is rebuilt from
/// sit in bytes[begin, end) as 8-byte fields. Each one forged to 2^31 or
/// 2^62 must be refused: the rebuild checks every target against its
/// group, the census against the record bound, and every increment
/// against n, before it sizes anything by them.
void ForgedTargetsAreRefused(const Roundtrip& roundtrip,
                             const std::string& bytes, size_t begin,
                             size_t end, const std::string& name) {
  ASSERT_LE(end, bytes.size()) << name;
  ASSERT_EQ((end - begin) % 8, 0u) << name;
  for (uint64_t forged : {uint64_t{1} << 31, uint64_t{1} << 62}) {
    for (size_t at = begin; at < end; at += 8) {
      std::string mutant = bytes;
      std::memcpy(&mutant[at], &forged, sizeof(forged));
      std::istringstream in(mutant);
      std::string resaved;
      EXPECT_FALSE(roundtrip(in, &resaved).ok())
          << name << ": target at " << at << " forged to " << forged
          << " accepted";
    }
  }
}

/// One 8-byte header field and the value forged into it.
struct Forgery {
  size_t at;
  uint64_t value;
};

/// Each census bin in bytes[begin, end) forged past the record cap, while
/// `header` inflates the record bound n + bins * (npad + ceil(40 sigma))
/// (a huge npad past the cap, or the smallest rho Create accepts with its
/// spend zeroed so the budget still loads). The bound is capped at kMaxRecords, so every such
/// census must be refused with InvalidArgument before a record exists.
void ForgedCensusWithInflatedBoundIsRefused(
    const Roundtrip& roundtrip, const std::string& bytes,
    const std::vector<Forgery>& header, size_t begin, size_t end,
    const std::string& name) {
  ASSERT_LE(end, bytes.size()) << name;
  ASSERT_EQ((end - begin) % 8, 0u) << name;
  std::string base = bytes;
  for (const Forgery& f : header) {
    std::memcpy(&base[f.at], &f.value, sizeof(f.value));
  }
  for (uint64_t forged : {uint64_t{1} << 33, uint64_t{1} << 62}) {
    for (size_t at = begin; at < end; at += 8) {
      std::string mutant = base;
      std::memcpy(&mutant[at], &forged, sizeof(forged));
      std::istringstream in(mutant);
      std::string resaved;
      const Status st = roundtrip(in, &resaved);
      EXPECT_TRUE(st.IsInvalidArgument())
          << name << ": census bin at " << at << " forged to " << forged
          << ": " << st.ToString();
    }
  }
}

/// The bit pattern of a double, for forging a field.
uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

template <typename Synth>
Roundtrip SynthRoundtrip() {
  return [](std::istream& in, std::string* out) -> Status {
    LONGDP_ASSIGN_OR_RETURN(auto synth, Synth::LoadCheckpoint(in));
    std::ostringstream resaved;
    LONGDP_RETURN_NOT_OK(synth->SaveCheckpoint(resaved));
    *out = resaved.str();
    return Status::OK();
  };
}

template <typename Synth>
std::string Save(const Synth& synth) {
  std::ostringstream out;
  EXPECT_TRUE(synth.SaveCheckpoint(out).ok());
  return out.str();
}

// 70 users: every bit plane ends in a partial word.
constexpr int64_t kUsers = 70;
constexpr int64_t kHorizon = 6;

TEST(CheckpointMutationTest, FixedWindowDecoderIsTotal) {
  util::SubstreamRng rng(0xF1, util::substream::kGeneric);
  auto ds = data::BernoulliIid(kUsers, kHorizon, 0.4, &rng).value();
  core::FixedWindowSynthesizer::Options options;
  options.horizon = kHorizon;
  options.window_k = 3;
  options.rho = 4.0;
  options.seed = 0xF1;
  auto synth = core::FixedWindowSynthesizer::Create(options).value();
  const auto roundtrip = SynthRoundtrip<core::FixedWindowSynthesizer>();
  MutateAll(roundtrip, Save(*synth), "fixed-window fresh");
  ASSERT_TRUE(synth->ObserveRound(ds.Round(1)).ok());
  MutateAll(roundtrip, Save(*synth), "fixed-window pre-release");
  for (int64_t t = 2; t <= 4; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
  }
  ASSERT_TRUE(synth->has_release());
  const std::string bytes = Save(*synth);
  MutateAll(roundtrip, bytes, "fixed-window post-release");
  // Before the end tag: the 8-bin census, then round 4's 4 ones targets.
  const size_t targets = (8 + 4) * 8;
  ForgedTargetsAreRefused(roundtrip, bytes, bytes.size() - 8 - targets,
                          bytes.size() - 8, "fixed-window targets");
  // Header fields after the magic line: horizon, k, rho, npad, beta, seed,
  // t, n, releases, clamps, rounding draws, spent.
  const size_t field = stream::state_io::Magic(
                           "fixed-window",
                           core::FixedWindowSynthesizer::kCheckpointVersion)
                           .size() +
                       1;
  const size_t census = bytes.size() - 8 - targets;
  for (const auto& header :
       {std::vector<Forgery>{{field + 3 * 8, uint64_t{1} << 31}},
        std::vector<Forgery>{{field + 3 * 8, uint64_t{1} << 62}},
        std::vector<Forgery>{{field + 2 * 8, Bits(core::kMinRho)},
                             {field + 11 * 8, Bits(0.0)}}}) {
    ForgedCensusWithInflatedBoundIsRefused(roundtrip, bytes, header, census,
                                           census + 8 * 8,
                                           "fixed-window census");
  }
}

TEST(CheckpointMutationTest, CumulativeDecoderIsTotal) {
  util::SubstreamRng rng(0xC1, util::substream::kGeneric);
  auto ds = data::BernoulliIid(kUsers, kHorizon, 0.4, &rng).value();
  core::CumulativeSynthesizer::Options options;
  options.horizon = kHorizon;
  options.rho = 4.0;
  options.seed = 0xC1;
  options.counter_factory = stream::MakeCounterFactory("tree").value();
  auto synth = core::CumulativeSynthesizer::Create(options).value();
  const auto roundtrip = SynthRoundtrip<core::CumulativeSynthesizer>();
  MutateAll(roundtrip, Save(*synth), "cumulative fresh");
  ASSERT_TRUE(synth->ObserveRound(ds.Round(1)).ok());
  MutateAll(roundtrip, Save(*synth), "cumulative first release");
  for (int64_t t = 2; t <= 4; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
  }
  const std::string bytes = Save(*synth);
  MutateAll(roundtrip, bytes, "cumulative mid-run");
  // After the magic line, horizon, rho, the two names, seed, t, n and the
  // bit_width(6) = 3 weight planes of two words: the 4 increment rows of T
  // counts, then the end tag.
  const std::string split = stream::BudgetSplitName(options.split);
  const size_t rows =
      stream::state_io::Magic("cumulative",
                              core::CumulativeSynthesizer::kCheckpointVersion)
          .size() +
      1 + 8 + 8 + (8 + split.size()) + (8 + 4) + 8 + 8 + 8 + 3 * 2 * 8;
  ASSERT_EQ(rows + 4 * kHorizon * 8 + 8, bytes.size());
  ForgedTargetsAreRefused(roundtrip, bytes, rows, rows + 4 * kHorizon * 8,
                          "cumulative increments");
}

TEST(CheckpointMutationTest, CategoricalDecoderIsTotal) {
  util::SubstreamRng rng(0xCA, util::substream::kGeneric);
  std::vector<std::vector<uint8_t>> rounds(kHorizon,
                                           std::vector<uint8_t>(kUsers));
  for (auto& round : rounds) {
    for (auto& s : round) s = static_cast<uint8_t>(rng.UniformInt(3));
  }
  core::CategoricalWindowSynthesizer::Options options;
  options.horizon = kHorizon;
  options.window_k = 2;
  options.alphabet = 3;
  options.rho = 4.0;
  options.seed = 0xCA;
  auto synth = core::CategoricalWindowSynthesizer::Create(options).value();
  const auto roundtrip = SynthRoundtrip<core::CategoricalWindowSynthesizer>();
  MutateAll(roundtrip, Save(*synth), "categorical fresh");
  ASSERT_TRUE(synth->ObserveRound(rounds[0]).ok());
  const std::string pre_release = Save(*synth);
  MutateAll(roundtrip, pre_release, "categorical pre-release");
  for (size_t t = 1; t < 4; ++t) {
    ASSERT_TRUE(synth->ObserveRound(rounds[t]).ok());
  }
  ASSERT_TRUE(synth->has_release());
  const std::string bytes = Save(*synth);
  MutateAll(roundtrip, bytes, "categorical post-release");
  // Header fields after the magic line: horizon, k, A, rho, npad, beta,
  // seed, t, n, releases, clamps, remainder draws, spent. Then the v4
  // layout: k * b = 4 window planes of two words (A = 3 takes b = 2 bits;
  // plane j * b + p holds bit p of the symbol from j rounds ago), and
  // before the end tag the 9-bin initial census and the 9-bin censuses of
  // rounds 3 and 4.
  const size_t field = stream::state_io::Magic(
                           "categorical",
                           core::CategoricalWindowSynthesizer::
                               kCheckpointVersion)
                           .size() +
                       1;
  const size_t plane_bytes = 2 * 8;
  const size_t planes = field + 13 * 8;
  const size_t targets = 3 * 9 * 8;
  ASSERT_EQ(planes + 4 * plane_bytes + targets + 8, bytes.size());
  ForgedTargetsAreRefused(roundtrip, bytes, bytes.size() - 8 - targets,
                          bytes.size() - 8, "categorical censuses");
  const size_t census = bytes.size() - 8 - targets;
  for (const auto& header :
       {std::vector<Forgery>{{field + 4 * 8, uint64_t{1} << 31}},
        std::vector<Forgery>{{field + 4 * 8, uint64_t{1} << 62}},
        std::vector<Forgery>{{field + 3 * 8, Bits(core::kMinRho)},
                             {field + 12 * 8, Bits(0.0)}}}) {
    ForgedCensusWithInflatedBoundIsRefused(roundtrip, bytes, header, census,
                                           census + 9 * 8,
                                           "categorical census");
  }
  // Forged window planes. Each must be refused: a lane whose digit is
  // >= A would index past the code map, tail bits past n break the packing
  // invariant, and a window symbol older than round 1 was never observed.
  const auto set_bit = [](std::string mutant, size_t plane, int64_t lane) {
    const size_t at = plane + static_cast<size_t>(lane / 64) * 8;
    uint64_t word;
    std::memcpy(&word, &mutant[at], sizeof(word));
    word |= uint64_t{1} << (lane % 64);
    std::memcpy(&mutant[at], &word, sizeof(word));
    return mutant;
  };
  const auto refused = [&](const std::string& mutant,
                           const std::string& what) {
    std::istringstream in(mutant);
    std::string resaved;
    const Status st = roundtrip(in, &resaved);
    EXPECT_TRUE(st.IsInvalidArgument()) << what << ": " << st.ToString();
  };
  for (int j = 0; j < 2; ++j) {
    const size_t bit0 = planes + static_cast<size_t>(2 * j) * plane_bytes;
    const size_t bit1 = bit0 + plane_bytes;
    for (int64_t lane : {int64_t{0}, int64_t{5}, kUsers - 1}) {
      // Digit 3 = both bits set, in the symbol from j rounds ago.
      refused(set_bit(set_bit(bytes, bit0, lane), bit1, lane),
              "digit 3 at lane " + std::to_string(lane) + " of round -" +
                  std::to_string(j));
    }
    for (int p = 0; p < 2; ++p) {
      const size_t plane = bit0 + static_cast<size_t>(p) * plane_bytes;
      for (int64_t lane : {kUsers, int64_t{127}}) {
        refused(set_bit(bytes, plane, lane),
                "tail bit " + std::to_string(lane) + " of plane " +
                    std::to_string(2 * j + p));
      }
    }
  }
  // After round 1 the second window round is still unobserved.
  for (size_t plane = planes + 2 * plane_bytes; plane < planes + 4 * plane_bytes;
       plane += plane_bytes) {
    refused(set_bit(pre_release, plane, 3),
            "symbol before round 1 at offset " + std::to_string(plane));
  }
}

TEST(CheckpointMutationTest, ForgedHorizonBeforeFirstReleaseIsRefused) {
  // Before the first release no payload bytes back the horizon, and the
  // first release sizes the synthetic history by it. Every loader checks
  // it against core::kMaxHorizon (through Create), so a horizon forged to
  // 2^16 or beyond is refused at load, not at the next round.
  util::SubstreamRng rng(0xF0, util::substream::kGeneric);
  auto ds = data::BernoulliIid(kUsers, kHorizon, 0.4, &rng).value();

  core::FixedWindowSynthesizer::Options fixed_options;
  fixed_options.horizon = kHorizon;
  fixed_options.window_k = 3;
  fixed_options.rho = 4.0;
  auto fixed = core::FixedWindowSynthesizer::Create(fixed_options).value();
  ASSERT_TRUE(fixed->ObserveRound(ds.Round(1)).ok());

  core::CumulativeSynthesizer::Options cumulative_options;
  cumulative_options.horizon = kHorizon;
  cumulative_options.rho = 4.0;
  auto cumulative =
      core::CumulativeSynthesizer::Create(cumulative_options).value();

  core::CategoricalWindowSynthesizer::Options categorical_options;
  categorical_options.horizon = kHorizon;
  categorical_options.window_k = 2;
  categorical_options.alphabet = 3;
  categorical_options.rho = 4.0;
  auto categorical =
      core::CategoricalWindowSynthesizer::Create(categorical_options).value();
  ASSERT_TRUE(
      categorical->ObserveRound(std::vector<uint8_t>(kUsers, 2)).ok());

  struct Payload {
    std::string family;
    int version;
    std::string bytes;
    Roundtrip roundtrip;
  };
  const Payload payloads[] = {
      {"fixed-window", core::FixedWindowSynthesizer::kCheckpointVersion,
       Save(*fixed), SynthRoundtrip<core::FixedWindowSynthesizer>()},
      {"cumulative", core::CumulativeSynthesizer::kCheckpointVersion,
       Save(*cumulative), SynthRoundtrip<core::CumulativeSynthesizer>()},
      {"categorical", core::CategoricalWindowSynthesizer::kCheckpointVersion,
       Save(*categorical),
       SynthRoundtrip<core::CategoricalWindowSynthesizer>()},
  };
  for (const Payload& p : payloads) {
    // The horizon is the first field after the magic line.
    const size_t at = stream::state_io::Magic(p.family, p.version).size() + 1;
    for (uint64_t forged :
         {uint64_t{1} << 16, uint64_t{1} << 32, uint64_t{1} << 62}) {
      std::string mutant = p.bytes;
      std::memcpy(&mutant[at], &forged, sizeof(forged));
      std::istringstream in(mutant);
      std::string resaved;
      const Status st = p.roundtrip(in, &resaved);
      EXPECT_TRUE(st.IsInvalidArgument())
          << p.family << ": horizon forged to " << forged << ": "
          << st.ToString();
    }
  }
}

}  // namespace
}  // namespace longdp
