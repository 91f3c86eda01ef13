// Thread-count invariance: the sharded observe phase must produce releases
// and synthetic records byte-identical to the serial path at every thread
// count, WITH noise enabled (finite rho exercises the full RNG sequence,
// which is stronger than the zero-noise equivalence suite). Each synthesizer
// renders its complete release log to text under pools of 1, 2, 3, and 8
// threads and the strings are compared against the serial run.
//
// Also pins the two ObserveRound entry points against each other: the
// byte-per-bit overload and the packed RoundView path must be
// indistinguishable.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/categorical_synthesizer.h"
#include "core/cumulative_synthesizer.h"
#include "core/fixed_window_synthesizer.h"
#include "data/generators.h"
#include "data/round_view.h"
#include "util/substream.h"
#include "util/thread_pool.h"

namespace longdp {
namespace core {
namespace {

const int kThreadCounts[] = {1, 2, 3, 8};

void AppendRow(const std::string& tag, int64_t t,
               const std::vector<int64_t>& row, std::ostringstream* out) {
  *out << tag << " t=" << t;
  for (int64_t v : row) *out << " " << v;
  *out << "\n";
}

std::unique_ptr<util::ThreadPool> MakePool(int threads) {
  if (threads <= 1) return nullptr;
  return std::make_unique<util::ThreadPool>(threads);
}

// ---------------------------------------------------------------------------

std::string CumulativeLog(const data::LongitudinalDataset& ds, int64_t T,
                          util::ThreadPool* pool, bool use_byte_overload) {
  CumulativeSynthesizer::Options opt;
  opt.horizon = T;
  opt.rho = 0.25;
  opt.pool = pool;
  opt.seed = 0x7EADu;
  auto synth = CumulativeSynthesizer::Create(opt).value();
  std::ostringstream log;
  for (int64_t t = 1; t <= T; ++t) {
    if (use_byte_overload) {
      std::vector<uint8_t> bytes(static_cast<size_t>(ds.num_users()));
      for (int64_t i = 0; i < ds.num_users(); ++i) {
        bytes[static_cast<size_t>(i)] =
            static_cast<uint8_t>(ds.Bit(i, t));
      }
      EXPECT_TRUE(synth->ObserveRound(bytes).ok());
    } else {
      EXPECT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
    }
    AppendRow("released", t, synth->released_thresholds(), &log);
  }
  AppendRow("synthetic", T, synth->SyntheticThresholdCounts(), &log);
  for (int64_t r = 0; r < synth->population(); ++r) {
    for (int64_t t = 1; t <= T; ++t) log << synth->Bit(r, t);
    log << "\n";
  }
  return log.str();
}

TEST(ThreadInvarianceTest, CumulativeReleaseLogIdenticalAtAnyThreadCount) {
  const int64_t n = 700, T = 15;
  util::SubstreamRng data_rng(0x11AAu, util::substream::kGeneric);
  auto ds = data::BernoulliIid(n, T, 0.35, &data_rng).value();
  const std::string serial =
      CumulativeLog(ds, T, nullptr, /*use_byte_overload=*/false);
  for (int threads : kThreadCounts) {
    auto pool = MakePool(threads);
    EXPECT_EQ(CumulativeLog(ds, T, pool.get(), false), serial)
        << "threads=" << threads;
  }
  // The byte-per-bit overload is the same machine.
  EXPECT_EQ(CumulativeLog(ds, T, nullptr, /*use_byte_overload=*/true),
            serial);
}

// ---------------------------------------------------------------------------

std::string FixedWindowLog(const data::LongitudinalDataset& ds, int64_t T,
                           int k, util::ThreadPool* pool) {
  FixedWindowSynthesizer::Options opt;
  opt.horizon = T;
  opt.window_k = k;
  opt.rho = 0.25;
  opt.pool = pool;
  opt.seed = 0xF00Du;
  auto synth = FixedWindowSynthesizer::Create(opt).value();
  std::ostringstream log;
  for (int64_t t = 1; t <= T; ++t) {
    EXPECT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
    if (!synth->has_release()) continue;
    AppendRow("histogram", t, synth->SyntheticHistogram(), &log);
  }
  log << "clamps=" << synth->stats().negative_clamps
      << " draws=" << synth->stats().rounding_draws << "\n";
  const auto& cohort = synth->cohort();
  for (int64_t r = 0; r < cohort.num_records(); ++r) {
    for (int64_t t = 1; t <= cohort.rounds(); ++t) log << cohort.Bit(r, t);
    log << "\n";
  }
  return log.str();
}

TEST(ThreadInvarianceTest, FixedWindowReleaseLogIdenticalAtAnyThreadCount) {
  const int64_t n = 900, T = 13;
  const int k = 3;
  util::SubstreamRng data_rng(0x22BBu, util::substream::kGeneric);
  auto ds = data::BernoulliIid(n, T, 0.3, &data_rng).value();
  const std::string serial = FixedWindowLog(ds, T, k, nullptr);
  for (int threads : kThreadCounts) {
    auto pool = MakePool(threads);
    EXPECT_EQ(FixedWindowLog(ds, T, k, pool.get()), serial)
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------

std::string CategoricalLog(const std::vector<std::vector<uint8_t>>& rounds,
                           int64_t T, int k, int A, util::ThreadPool* pool) {
  CategoricalWindowSynthesizer::Options opt;
  opt.horizon = T;
  opt.window_k = k;
  opt.alphabet = A;
  opt.rho = 0.25;
  opt.pool = pool;
  opt.seed = 0xCA7Eu;
  auto synth = CategoricalWindowSynthesizer::Create(opt).value();
  std::ostringstream log;
  for (int64_t t = 1; t <= T; ++t) {
    EXPECT_TRUE(
        synth->ObserveRound(rounds[static_cast<size_t>(t - 1)]).ok());
    if (!synth->has_release()) continue;
    AppendRow("histogram", t, synth->SyntheticHistogram(), &log);
  }
  for (int64_t r = 0; r < synth->cohort().num_records(); ++r) {
    for (int64_t t = 1; t <= synth->t(); ++t) {
      log << synth->cohort().Symbol(r, t);
    }
    log << "\n";
  }
  return log.str();
}

TEST(ThreadInvarianceTest, CategoricalReleaseLogIdenticalAtAnyThreadCount) {
  const int64_t n = 800, T = 9;
  const int k = 2, A = 3;
  util::SubstreamRng data_rng(0x33CCu, util::substream::kGeneric);
  std::vector<std::vector<uint8_t>> rounds(static_cast<size_t>(T));
  for (auto& round : rounds) {
    round.resize(static_cast<size_t>(n));
    for (auto& s : round) {
      s = static_cast<uint8_t>(
          data_rng.UniformInt(static_cast<uint64_t>(A)));
    }
  }
  const std::string serial = CategoricalLog(rounds, T, k, A, nullptr);
  for (int threads : kThreadCounts) {
    auto pool = MakePool(threads);
    EXPECT_EQ(CategoricalLog(rounds, T, k, A, pool.get()), serial)
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------

TEST(ThreadInvarianceTest, PopulationSmallerThanShardCount) {
  // n = 3 with an 8-lane pool leaves most shards empty; the run must still
  // match serial exactly (and not crash on empty ranges).
  const int64_t n = 3, T = 6;
  util::SubstreamRng data_rng(0x44DDu, util::substream::kGeneric);
  auto ds = data::BernoulliIid(n, T, 0.5, &data_rng).value();
  const std::string serial =
      CumulativeLog(ds, T, nullptr, /*use_byte_overload=*/false);
  auto pool = MakePool(8);
  EXPECT_EQ(CumulativeLog(ds, T, pool.get(), false), serial);
}

}  // namespace
}  // namespace core
}  // namespace longdp
