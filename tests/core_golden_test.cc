// Seeded golden tests: each synthesizer runs its full horizon from a fixed
// Options::seed on a fixed dataset, and the complete release log — every
// per-round released row plus the final materialized synthetic records — is
// rendered as text and compared byte-for-byte against a checked-in golden
// file. Any behavioral drift in the hot path (an extra or reordered noise
// draw, a changed selection order, a different clamp) shows up as a diff,
// which is what makes refactoring the observe path routine instead of risky.
//
// The goldens under tests/golden/ were re-recorded ONCE when randomness
// moved from a mutable shared xoshiro stream to keyed counter-based
// substreams (every draw addressed by (seed, purpose, shard, round, index));
// the statistical acceptance suite passed on the new engine before the
// re-record, per the golden policy. The categorical golden was re-recorded
// once more, alone, when its stage 2 moved onto the fixed-window keyed
// streams (README, "Re-records to date"). Any future engine change needs
// the same two-step: statistical suite green first, then regenerate.
// To regenerate after an INTENTIONAL behavior change:
//
//   LONGDP_REGEN_GOLDEN=1 ./tests/core_golden_test
//
// which rewrites the files in the source tree (build must be configured
// from a checkout, not an installed tree).

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/categorical_synthesizer.h"
#include "core/cumulative_synthesizer.h"
#include "core/fixed_window_synthesizer.h"
#include "data/generators.h"
#include "stream/honaker_counter.h"
#include "util/substream.h"
#include "util/thread_pool.h"

namespace longdp {
namespace core {
namespace {

#ifndef LONGDP_TEST_GOLDEN_DIR
#error "tests/CMakeLists.txt must define LONGDP_TEST_GOLDEN_DIR"
#endif

std::string GoldenPath(const std::string& name) {
  return std::string(LONGDP_TEST_GOLDEN_DIR) + "/" + name + ".golden";
}

void AppendRow(const std::string& tag, int64_t t,
               const std::vector<int64_t>& row, std::ostringstream* out) {
  *out << tag << " t=" << t;
  for (int64_t v : row) *out << " " << v;
  *out << "\n";
}

// Compares `actual` against the checked-in golden, or rewrites the golden
// when LONGDP_REGEN_GOLDEN is set.
void CheckGolden(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (std::getenv("LONGDP_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    ASSERT_TRUE(out.good()) << "write failed for " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with LONGDP_REGEN_GOLDEN=1 to record)";
  std::ostringstream expected;
  expected << in.rdbuf();
  // Compare line-by-line first so a drift points at the exact round.
  std::istringstream want(expected.str()), got(actual);
  std::string wline, gline;
  int64_t lineno = 0;
  while (std::getline(want, wline)) {
    ++lineno;
    ASSERT_TRUE(std::getline(got, gline))
        << name << ": output truncated at golden line " << lineno;
    ASSERT_EQ(wline, gline) << name << ": first drift at line " << lineno;
  }
  ASSERT_FALSE(std::getline(got, gline))
      << name << ": output has extra lines after golden line " << lineno;
  EXPECT_EQ(expected.str(), actual);
}

// Each golden log is rendered under every thread count in {1, 2, 8} and
// every rendering must match the SAME golden file: the sharded observe
// phase is required to be bit-identical to the serial recording.
template <typename BuildLog>
void CheckGoldenAtAllThreadCounts(const std::string& name,
                                  BuildLog&& build_log) {
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);
    CheckGolden(name, build_log(pool.get()));
  }
}

// ---------------------------------------------------------------------------
// Cumulative synthesizer: released + raw threshold rows every round, then
// the full synthetic record matrix.

TEST(GoldenTest, CumulativeReleaseLog) {
  const int64_t n = 400, T = 16;
  util::SubstreamRng data_rng(0xD5EEDu, util::substream::kGeneric);
  auto ds = data::BernoulliIid(n, T, 0.3, &data_rng).value();

  CheckGoldenAtAllThreadCounts(
      "cumulative_release_log", [&](util::ThreadPool* pool) {
        CumulativeSynthesizer::Options opt;
        opt.horizon = T;
        opt.rho = 0.5;
        opt.pool = pool;
        opt.seed = 20240611u;
        auto synth = CumulativeSynthesizer::Create(opt).value();

        std::ostringstream log;
        log << "cumulative n=" << n << " T=" << T << " rho=" << opt.rho
            << "\n";
        for (int64_t t = 1; t <= T; ++t) {
          EXPECT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
          AppendRow("raw", t, synth->raw_thresholds(), &log);
          AppendRow("released", t, synth->released_thresholds(), &log);
        }
        AppendRow("synthetic_thresholds", T,
                  synth->SyntheticThresholdCounts(), &log);
        log << "records\n";
        for (int64_t r = 0; r < synth->population(); ++r) {
          std::string line(static_cast<size_t>(T), '0');
          for (int64_t t = 1; t <= T; ++t) {
            if (synth->Bit(r, t)) line[static_cast<size_t>(t - 1)] = '1';
          }
          log << line << "\n";
        }
        return log.str();
      });
}

// ---------------------------------------------------------------------------
// Fixed-window synthesizer: the synthetic histogram after every release,
// stats counters, then the cohort's record matrix.

TEST(GoldenTest, FixedWindowReleaseLog) {
  const int64_t n = 400, T = 14;
  const int k = 3;
  util::SubstreamRng data_rng(0xF1DDu, util::substream::kGeneric);
  auto ds = data::BernoulliIid(n, T, 0.25, &data_rng).value();

  CheckGoldenAtAllThreadCounts(
      "fixed_window_release_log", [&](util::ThreadPool* pool) {
        FixedWindowSynthesizer::Options opt;
        opt.horizon = T;
        opt.window_k = k;
        opt.rho = 0.5;
        opt.pool = pool;
        opt.seed = 20240612u;
        auto synth = FixedWindowSynthesizer::Create(opt).value();

        std::ostringstream log;
        log << "fixed_window n=" << n << " T=" << T << " k=" << k
            << " rho=" << opt.rho << " npad=" << synth->npad() << "\n";
        for (int64_t t = 1; t <= T; ++t) {
          EXPECT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
          if (!synth->has_release()) continue;
          AppendRow("histogram", t, synth->SyntheticHistogram(), &log);
        }
        log << "stats releases=" << synth->stats().releases
            << " negative_clamps=" << synth->stats().negative_clamps
            << " rounding_draws=" << synth->stats().rounding_draws << "\n";
        const auto& cohort = synth->cohort();
        log << "records " << cohort.num_records() << " " << cohort.rounds()
            << "\n";
        for (int64_t r = 0; r < cohort.num_records(); ++r) {
          std::string line(static_cast<size_t>(cohort.rounds()), '0');
          for (int64_t t = 1; t <= cohort.rounds(); ++t) {
            if (cohort.Bit(r, t)) line[static_cast<size_t>(t - 1)] = '1';
          }
          log << line << "\n";
        }
        return log.str();
      });
}

// ---------------------------------------------------------------------------
// Categorical window synthesizer: histogram after every release, stats,
// then the record matrix (symbols as digits).

TEST(GoldenTest, CategoricalReleaseLog) {
  const int64_t n = 300, T = 10;
  const int k = 2, A = 3;
  // Deterministic symbol stream from its own rng.
  util::SubstreamRng data_rng(0xCA7u, util::substream::kGeneric);
  std::vector<std::vector<uint8_t>> rounds(static_cast<size_t>(T));
  for (auto& round : rounds) {
    round.resize(static_cast<size_t>(n));
    for (auto& s : round) {
      s = static_cast<uint8_t>(data_rng.UniformInt(static_cast<uint64_t>(A)));
    }
  }

  CheckGoldenAtAllThreadCounts(
      "categorical_release_log", [&](util::ThreadPool* pool) {
        CategoricalWindowSynthesizer::Options opt;
        opt.horizon = T;
        opt.window_k = k;
        opt.alphabet = A;
        opt.rho = 0.5;
        opt.pool = pool;
        opt.seed = 20240613u;
        auto synth = CategoricalWindowSynthesizer::Create(opt).value();

        std::ostringstream log;
        log << "categorical n=" << n << " T=" << T << " k=" << k
            << " A=" << A << " rho=" << opt.rho << " npad=" << synth->npad()
            << "\n";
        for (int64_t t = 1; t <= T; ++t) {
          EXPECT_TRUE(
              synth->ObserveRound(rounds[static_cast<size_t>(t - 1)])
                  .ok());
          if (!synth->has_release()) continue;
          AppendRow("histogram", t, synth->SyntheticHistogram(), &log);
        }
        log << "stats releases=" << synth->stats().releases
            << " negative_clamps=" << synth->stats().negative_clamps
            << " remainder_draws=" << synth->stats().remainder_draws
            << "\n";
        log << "records " << synth->synthetic_population() << " "
            << synth->t() << "\n";
        for (int64_t r = 0; r < synth->synthetic_population(); ++r) {
          std::string line;
          for (int64_t t = 1; t <= synth->t(); ++t) {
            line += static_cast<char>('0' + synth->Symbol(r, t));
          }
          log << line << "\n";
        }
        return log.str();
      });
}

// ---------------------------------------------------------------------------
// Non-default counter through the bank (honaker) so the batched observe
// path is pinned for the virtual-dispatch fallback too, not just the tree
// fast path.

TEST(GoldenTest, CumulativeHonakerReleaseLog) {
  const int64_t n = 200, T = 12;
  util::SubstreamRng dsrng(0xA0AAu, util::substream::kGeneric);
  auto ds = data::BernoulliIid(n, T, 0.4, &dsrng).value();

  CheckGoldenAtAllThreadCounts(
      "cumulative_honaker_release_log", [&](util::ThreadPool* pool) {
        CumulativeSynthesizer::Options opt;
        opt.horizon = T;
        opt.rho = 1.0;
        opt.counter_factory =
            std::make_shared<stream::HonakerCounterFactory>();
        opt.pool = pool;
        opt.seed = 20240614u;
        auto synth = CumulativeSynthesizer::Create(opt).value();

        std::ostringstream log;
        log << "cumulative_honaker n=" << n << " T=" << T
            << " rho=" << opt.rho << "\n";
        for (int64_t t = 1; t <= T; ++t) {
          EXPECT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
          AppendRow("released", t, synth->released_thresholds(), &log);
        }
        AppendRow("synthetic_thresholds", T,
                  synth->SyntheticThresholdCounts(), &log);
        return log.str();
      });
}

}  // namespace
}  // namespace core
}  // namespace longdp
