// Standalone crash-test worker for durability_crash_replay_test. Runs one
// durable synthesizer session in THIS process and, in "kill" mode, raises
// SIGKILL the instant the target round's WAL fsync has returned — an
// honest crash, with no destructors, stream flushes, or atexit handlers
// softening it. The parent test then re-launches the helper in "run" mode
// and demands the recovered WAL be byte-identical to an uninterrupted
// run's.
//
// Usage:
//   durability_crash_helper <kind> <dir> <last_round> <kill|run>
//                           <threads> <shards>
//
//   kind        cumulative | fixed-window | categorical | categorical-5
//               (categorical runs A = 3, categorical-5 runs A = 5)
//   last_round  observe rounds up to this one (resuming from whatever the
//               session recovers to); "kill" raises SIGKILL right after it
//   threads     0 runs serially; otherwise a ThreadPool(threads, shards)
//
// Input data is regenerated from keyed substreams (fixed seeds below), so
// every invocation — first run, post-crash replay, different grid — feeds
// bit-identical rounds without any shared state between processes.
//
// Exit codes: 0 ok; 64 usage; 65 session open failed; 66 a round failed.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "data/generators.h"
#include "persist/bindings.h"
#include "persist/session.h"
#include "util/thread_pool.h"

namespace {

using longdp::Status;

constexpr int64_t kHorizon = 12;
constexpr int64_t kUsers = 400;
constexpr uint64_t kDataSeed = 20260808;
constexpr uint64_t kRunSeed = 424243;

// Round t's bits, regenerated deterministically by the keyed generator.
std::vector<uint8_t> RoundBits(int64_t t) {
  static const longdp::data::LongitudinalDataset ds =
      longdp::data::BernoulliIid(kUsers, kHorizon, 0.3, kDataSeed, nullptr)
          .value();
  std::vector<uint8_t> bits(static_cast<size_t>(kUsers));
  for (int64_t i = 0; i < kUsers; ++i) {
    bits[static_cast<size_t>(i)] = static_cast<uint8_t>(ds.Bit(i, t));
  }
  return bits;
}

// Categorical symbols over an alphabet of 3 or 5 letters from three keyed
// bit streams.
std::vector<uint8_t> RoundSymbols(int64_t t, int alphabet) {
  static const longdp::data::LongitudinalDataset bits[3] = {
      longdp::data::BernoulliIid(kUsers, kHorizon, 0.5, kDataSeed + 1,
                                 nullptr)
          .value(),
      longdp::data::BernoulliIid(kUsers, kHorizon, 0.5, kDataSeed + 2,
                                 nullptr)
          .value(),
      longdp::data::BernoulliIid(kUsers, kHorizon, 0.5, kDataSeed + 3,
                                 nullptr)
          .value()};
  std::vector<uint8_t> symbols(static_cast<size_t>(kUsers));
  for (int64_t i = 0; i < kUsers; ++i) {
    int code = bits[0].Bit(i, t) + 2 * bits[1].Bit(i, t);
    if (alphabet > 4) code += 4 * bits[2].Bit(i, t);
    symbols[static_cast<size_t>(i)] = static_cast<uint8_t>(code % alphabet);
  }
  return symbols;
}

template <typename Run, typename Opts, typename DataFn>
int Drive(const std::string& dir, int64_t last, bool kill, Opts opts,
          const DataFn& data) {
  longdp::persist::DurableSession::Options dopts;
  dopts.dir = dir;
  dopts.snapshot_every = 4;
  auto run = Run::Open(dopts, opts);
  if (!run.ok()) {
    std::fprintf(stderr, "open: %s\n", run.status().ToString().c_str());
    return 65;
  }
  for (int64_t t = (*run)->synth().t() + 1; t <= last; ++t) {
    Status round = (*run)->ObserveRound(data(t));
    if (!round.ok()) {
      std::fprintf(stderr, "round %lld: %s\n",
                   static_cast<long long>(t), round.ToString().c_str());
      return 66;
    }
    if (kill && t == last) {
      std::raise(SIGKILL);  // no return: the process dies mid-run
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 7) {
    std::fprintf(stderr,
                 "usage: %s <kind> <dir> <last_round> <kill|run> "
                 "<threads> <shards>\n",
                 argv[0]);
    return 64;
  }
  const std::string kind = argv[1];
  const std::string dir = argv[2];
  const int64_t last = std::strtoll(argv[3], nullptr, 10);
  const bool kill = std::strcmp(argv[4], "kill") == 0;
  const int threads = static_cast<int>(std::strtol(argv[5], nullptr, 10));
  const int shards = static_cast<int>(std::strtol(argv[6], nullptr, 10));

  std::unique_ptr<longdp::util::ThreadPool> pool;
  if (threads > 0) {
    pool = std::make_unique<longdp::util::ThreadPool>(threads, shards);
  }

  if (kind == "cumulative") {
    longdp::core::CumulativeSynthesizer::Options opts;
    opts.horizon = kHorizon;
    opts.rho = 0.25;
    opts.seed = kRunSeed;
    opts.pool = pool.get();
    return Drive<longdp::persist::DurableCumulative>(
        dir, last, kill, opts, [](int64_t t) { return RoundBits(t); });
  }
  if (kind == "fixed-window") {
    longdp::core::FixedWindowSynthesizer::Options opts;
    opts.horizon = kHorizon;
    opts.window_k = 3;
    opts.rho = 0.25;
    opts.seed = kRunSeed;
    opts.pool = pool.get();
    return Drive<longdp::persist::DurableFixedWindow>(
        dir, last, kill, opts, [](int64_t t) { return RoundBits(t); });
  }
  if (kind == "categorical" || kind == "categorical-5") {
    longdp::core::CategoricalWindowSynthesizer::Options opts;
    opts.horizon = kHorizon;
    opts.window_k = 2;
    opts.alphabet = kind == "categorical" ? 3 : 5;
    opts.rho = 0.25;
    opts.seed = kRunSeed;
    opts.pool = pool.get();
    return Drive<longdp::persist::DurableCategorical>(
        dir, last, kill, opts,
        [&opts](int64_t t) { return RoundSymbols(t, opts.alphabet); });
  }
  std::fprintf(stderr, "unknown kind '%s'\n", kind.c_str());
  return 64;
}
