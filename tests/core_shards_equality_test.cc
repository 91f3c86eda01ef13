// Shard-grid invariance: with counter-based substreams, a release log is a
// pure function of (options, input data) — the shard count and the number
// of pool lanes executing those shards must both be invisible. Each
// synthesizer renders its complete release log (every round, every
// bin/threshold, plus the synthetic records) under every combination of
// shards {1, 4, 16} x threads {1, 2, 8} and the strings are compared
// byte-for-byte against the serial run. This is stronger than the
// thread-invariance suite: ThreadPool(threads, shards) fixes the shard
// grid independently of the lane count, so a lane can own several shards
// and the interleaving changes with every (threads, shards) pair.
//
// Also pins checkpoint/resume against the shard grid: a run interrupted
// mid-stream and resumed on a *different* grid must finish with the same
// log as the uninterrupted serial run, because checkpoints persist only
// the seed and the state draws are rebuilt from, never engine state.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/categorical_synthesizer.h"
#include "core/cumulative_synthesizer.h"
#include "core/fixed_window_synthesizer.h"
#include "data/generators.h"
#include "util/substream.h"
#include "util/thread_pool.h"

namespace longdp {
namespace core {
namespace {

const int kShardCounts[] = {1, 4, 16};
const int kThreadCounts[] = {1, 2, 8};

// nullptr for the serial baseline (threads == 0); otherwise a pool whose
// shard grid is pinned to `shards` regardless of the lane count.
std::unique_ptr<util::ThreadPool> MakeGrid(int threads, int shards) {
  if (threads == 0) return nullptr;
  return std::make_unique<util::ThreadPool>(threads, shards);
}

void AppendRow(const std::string& tag, int64_t t,
               const std::vector<int64_t>& row, std::ostringstream* out) {
  *out << tag << " t=" << t;
  for (int64_t v : row) *out << " " << v;
  *out << "\n";
}

// ---------------------------------------------------------------------------

std::string FixedWindowLog(const data::LongitudinalDataset& ds, int64_t T,
                           int k, util::ThreadPool* pool) {
  FixedWindowSynthesizer::Options opt;
  opt.horizon = T;
  opt.window_k = k;
  opt.rho = 0.25;
  opt.pool = pool;
  opt.seed = 0x5AAD5u;
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

TEST(ShardsEqualityTest, FixedWindowLogIdenticalOnEveryGrid) {
  const int64_t n = 1200, T = 13;
  const int k = 3;
  util::SubstreamRng data_rng(0xA11CEu, util::substream::kGeneric);
  auto ds = data::BernoulliIid(n, T, 0.3, &data_rng).value();
  const std::string serial = FixedWindowLog(ds, T, k, nullptr);
  for (int shards : kShardCounts) {
    for (int threads : kThreadCounts) {
      auto pool = MakeGrid(threads, shards);
      EXPECT_EQ(FixedWindowLog(ds, T, k, pool.get()), serial)
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------

std::string CumulativeLog(const data::LongitudinalDataset& ds, int64_t T,
                          util::ThreadPool* pool) {
  CumulativeSynthesizer::Options opt;
  opt.horizon = T;
  opt.rho = 0.25;
  opt.pool = pool;
  opt.seed = 0xCAFEDu;
  auto synth = CumulativeSynthesizer::Create(opt).value();
  std::ostringstream log;
  for (int64_t t = 1; t <= T; ++t) {
    EXPECT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
    AppendRow("released", t, synth->released_thresholds(), &log);
  }
  AppendRow("synthetic", T, synth->SyntheticThresholdCounts(), &log);
  for (int64_t r = 0; r < synth->population(); ++r) {
    for (int64_t t = 1; t <= T; ++t) log << synth->Bit(r, t);
    log << "\n";
  }
  return log.str();
}

TEST(ShardsEqualityTest, CumulativeLogIdenticalOnEveryGrid) {
  const int64_t n = 1000, T = 15;
  util::SubstreamRng data_rng(0xB22DFu, util::substream::kGeneric);
  auto ds = data::BernoulliIid(n, T, 0.35, &data_rng).value();
  const std::string serial = CumulativeLog(ds, T, nullptr);
  for (int shards : kShardCounts) {
    for (int threads : kThreadCounts) {
      auto pool = MakeGrid(threads, shards);
      EXPECT_EQ(CumulativeLog(ds, T, pool.get()), serial)
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------

void AppendCategoricalTail(const CategoricalWindowSynthesizer& synth,
                           std::ostringstream* log) {
  *log << "clamps=" << synth.stats().negative_clamps
       << " draws=" << synth.stats().remainder_draws << "\n";
  for (int64_t r = 0; r < synth.synthetic_population(); ++r) {
    for (int64_t t = 1; t <= synth.t(); ++t) *log << synth.Symbol(r, t);
    *log << "\n";
  }
}

std::vector<std::vector<uint8_t>> CategoricalRounds(int64_t n, int64_t T,
                                                    int A, uint64_t seed) {
  util::SubstreamRng data_rng(seed, util::substream::kGeneric);
  std::vector<std::vector<uint8_t>> rounds(static_cast<size_t>(T));
  for (auto& round : rounds) {
    round.resize(static_cast<size_t>(n));
    for (auto& s : round) {
      s = static_cast<uint8_t>(
          data_rng.UniformInt(static_cast<uint64_t>(A)));
    }
  }
  return rounds;
}

std::string CategoricalLog(const std::vector<std::vector<uint8_t>>& rounds,
                           int64_t T, int k, int A, util::ThreadPool* pool) {
  CategoricalWindowSynthesizer::Options opt;
  opt.horizon = T;
  opt.window_k = k;
  opt.alphabet = A;
  opt.rho = 0.25;
  opt.pool = pool;
  opt.seed = 0xC33E7u;
  auto synth = CategoricalWindowSynthesizer::Create(opt).value();
  std::ostringstream log;
  for (int64_t t = 1; t <= T; ++t) {
    EXPECT_TRUE(
        synth->ObserveRound(rounds[static_cast<size_t>(t - 1)]).ok());
    if (!synth->has_release()) continue;
    AppendRow("histogram", t, synth->SyntheticHistogram(), &log);
  }
  AppendCategoricalTail(*synth, &log);
  return log.str();
}

TEST(ShardsEqualityTest, CategoricalLogIdenticalOnEveryGrid) {
  const int64_t n = 900, T = 9;
  const int k = 2, A = 3;
  const auto rounds = CategoricalRounds(n, T, A, 0xD44E1u);
  const std::string serial = CategoricalLog(rounds, T, k, A, nullptr);
  for (int shards : kShardCounts) {
    for (int threads : kThreadCounts) {
      auto pool = MakeGrid(threads, shards);
      EXPECT_EQ(CategoricalLog(rounds, T, k, A, pool.get()), serial)
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------

TEST(ShardsEqualityTest, FixedWindowResumeOnDifferentGridMatchesSerial) {
  const int64_t n = 1100, T = 12;
  const int k = 3;
  util::SubstreamRng data_rng(0xE55F2u, util::substream::kGeneric);
  auto ds = data::BernoulliIid(n, T, 0.4, &data_rng).value();
  const std::string serial = FixedWindowLog(ds, T, k, nullptr);

  // Interrupt a 16-shard run at T/2, then resume the checkpoint on a
  // 4-shard, 8-lane grid. The rendered log must still equal serial.
  FixedWindowSynthesizer::Options opt;
  opt.horizon = T;
  opt.window_k = k;
  opt.rho = 0.25;
  opt.seed = 0x5AAD5u;  // must match FixedWindowLog
  util::ThreadPool first_pool(2, 16);
  opt.pool = &first_pool;
  auto first = FixedWindowSynthesizer::Create(opt).value();
  std::ostringstream log;
  for (int64_t t = 1; t <= T / 2; ++t) {
    ASSERT_TRUE(first->ObserveRound(ds.Round(t)).ok());
    if (!first->has_release()) continue;
    AppendRow("histogram", t, first->SyntheticHistogram(), &log);
  }
  std::ostringstream ckpt;
  ASSERT_TRUE(first->SaveCheckpoint(ckpt).ok());
  first.reset();

  std::istringstream in(ckpt.str());
  util::ThreadPool second_pool(8, 4);
  auto resumed = FixedWindowSynthesizer::LoadCheckpoint(in).value();
  resumed->set_pool(&second_pool);
  for (int64_t t = T / 2 + 1; t <= T; ++t) {
    ASSERT_TRUE(resumed->ObserveRound(ds.Round(t)).ok());
    if (!resumed->has_release()) continue;
    AppendRow("histogram", t, resumed->SyntheticHistogram(), &log);
  }
  log << "clamps=" << resumed->stats().negative_clamps
      << " draws=" << resumed->stats().rounding_draws << "\n";
  const auto& cohort = resumed->cohort();
  for (int64_t r = 0; r < cohort.num_records(); ++r) {
    for (int64_t t = 1; t <= cohort.rounds(); ++t) log << cohort.Bit(r, t);
    log << "\n";
  }
  EXPECT_EQ(log.str(), serial);
}

TEST(ShardsEqualityTest, CumulativeResumeOnDifferentGridMatchesSerial) {
  const int64_t n = 950, T = 14;
  util::SubstreamRng data_rng(0xF66A3u, util::substream::kGeneric);
  auto ds = data::BernoulliIid(n, T, 0.45, &data_rng).value();
  const std::string serial = CumulativeLog(ds, T, nullptr);

  CumulativeSynthesizer::Options opt;
  opt.horizon = T;
  opt.rho = 0.25;
  opt.seed = 0xCAFEDu;  // must match CumulativeLog
  util::ThreadPool first_pool(8, 16);
  opt.pool = &first_pool;
  auto first = CumulativeSynthesizer::Create(opt).value();
  std::ostringstream log;
  for (int64_t t = 1; t <= T / 2; ++t) {
    ASSERT_TRUE(first->ObserveRound(ds.Round(t)).ok());
    AppendRow("released", t, first->released_thresholds(), &log);
  }
  std::ostringstream ckpt;
  ASSERT_TRUE(first->SaveCheckpoint(ckpt).ok());
  first.reset();

  std::istringstream in(ckpt.str());
  util::ThreadPool second_pool(1, 4);
  auto resumed = CumulativeSynthesizer::LoadCheckpoint(in).value();
  resumed->set_pool(&second_pool);
  for (int64_t t = T / 2 + 1; t <= T; ++t) {
    ASSERT_TRUE(resumed->ObserveRound(ds.Round(t)).ok());
    AppendRow("released", t, resumed->released_thresholds(), &log);
  }
  AppendRow("synthetic", T, resumed->SyntheticThresholdCounts(), &log);
  for (int64_t r = 0; r < resumed->population(); ++r) {
    for (int64_t t = 1; t <= T; ++t) log << resumed->Bit(r, t);
    log << "\n";
  }
  EXPECT_EQ(log.str(), serial);
}

TEST(ShardsEqualityTest, CategoricalResumeOnDifferentGridMatchesSerial) {
  const int64_t n = 1000, T = 11;
  const int k = 3, A = 3;
  const auto rounds = CategoricalRounds(n, T, A, 0xA77B4u);
  const std::string serial = CategoricalLog(rounds, T, k, A, nullptr);

  CategoricalWindowSynthesizer::Options opt;
  opt.horizon = T;
  opt.window_k = k;
  opt.alphabet = A;
  opt.rho = 0.25;
  opt.seed = 0xC33E7u;  // must match CategoricalLog
  util::ThreadPool first_pool(2, 16);
  opt.pool = &first_pool;
  auto first = CategoricalWindowSynthesizer::Create(opt).value();
  std::ostringstream log;
  for (int64_t t = 1; t <= T / 2; ++t) {
    ASSERT_TRUE(first->ObserveRound(rounds[static_cast<size_t>(t - 1)]).ok());
    if (!first->has_release()) continue;
    AppendRow("histogram", t, first->SyntheticHistogram(), &log);
  }
  std::ostringstream ckpt;
  ASSERT_TRUE(first->SaveCheckpoint(ckpt).ok());
  first.reset();

  std::istringstream in(ckpt.str());
  util::ThreadPool second_pool(8, 4);
  auto resumed = CategoricalWindowSynthesizer::LoadCheckpoint(in).value();
  resumed->set_pool(&second_pool);
  for (int64_t t = T / 2 + 1; t <= T; ++t) {
    ASSERT_TRUE(
        resumed->ObserveRound(rounds[static_cast<size_t>(t - 1)]).ok());
    if (!resumed->has_release()) continue;
    AppendRow("histogram", t, resumed->SyntheticHistogram(), &log);
  }
  AppendCategoricalTail(*resumed, &log);
  EXPECT_EQ(log.str(), serial);
}

}  // namespace
}  // namespace core
}  // namespace longdp
