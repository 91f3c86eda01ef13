#include "inputs.h"

#include <algorithm>
#include <utility>

#include "data/sipp_simulator.h"
#include "util/substream.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace ld = longdp;

namespace {
// Households per keyed block of the employment chain.
constexpr int64_t kChainBlock = 4096;
constexpr uint64_t kPurposeSipp = 1;
constexpr uint64_t kPurposeChain = 2;
}  // namespace

const char* SynthName(Synth synth) {
  switch (synth) {
    case Synth::kFixedWindow:
      return "fixed_window";
    case Synth::kCumulative:
      return "cumulative";
    case Synth::kCategorical:
      return "categorical";
  }
  return "unknown";
}

uint64_t DeriveSeed(uint64_t seed, uint64_t purpose, uint64_t index) {
  return ld::util::SubstreamRng(seed, ld::util::substream::kGeneric)
      .Derive(purpose)
      .Leaf(index)
      .Next();
}

Result<Inputs> MakeInputs(int64_t n, uint64_t seed, ld::util::ThreadPool* pool,
                          bool with_bytes) {
  ld::data::SippOptions sipp;
  sipp.num_households = n;
  sipp.horizon = kHorizon;
  LONGDP_ASSIGN_OR_RETURN(
      auto panel,
      ld::data::SimulateSipp(sipp, DeriveSeed(seed, kPurposeSipp, 0), pool));
  Inputs in{std::move(panel), {}, {}};

  const size_t un = static_cast<size_t>(n);
  if (with_bytes) {
    in.bits.assign(static_cast<size_t>(kHorizon), std::vector<uint8_t>(un));
    for (int64_t t = 1; t <= kHorizon; ++t) {
      std::vector<uint8_t>& row = in.bits[static_cast<size_t>(t - 1)];
      in.sipp.Round(t).ForEachOne([&](int64_t i) { row[i] = 1; });
    }
  }

  // The 3-state monthly chain of examples/categorical_employment.cc, keyed
  // per (round, block of households) so it shards across the pool.
  static constexpr double kStart[3] = {0.62, 0.06, 0.32};
  static constexpr double kMove[3][3] = {
      {0.96, 0.02, 0.02},  // employed is sticky
      {0.25, 0.65, 0.10},  // unemployed resolves or discourages
      {0.05, 0.03, 0.92},  // out of the labour force is sticky
  };
  in.employment.assign(static_cast<size_t>(kHorizon),
                       std::vector<uint8_t>(un));
  const ld::util::SubstreamRng root(DeriveSeed(seed, kPurposeChain, 0),
                                    ld::util::substream::kDataset);
  const int64_t blocks = (n + kChainBlock - 1) / kChainBlock;
  for (int64_t t = 1; t <= kHorizon; ++t) {
    const ld::util::SubstreamRng round_rng =
        root.Derive(static_cast<uint64_t>(t));
    std::vector<uint8_t>& cur = in.employment[static_cast<size_t>(t - 1)];
    const std::vector<uint8_t>* prev =
        t > 1 ? &in.employment[static_cast<size_t>(t - 2)] : nullptr;
    ld::util::ShardedFor(pool, blocks, [&](int, int64_t begin, int64_t end) {
      for (int64_t b = begin; b < end; ++b) {
        ld::util::SubstreamRng rng = round_rng.Leaf(static_cast<uint64_t>(b));
        const int64_t hi = std::min(n, (b + 1) * kChainBlock);
        for (int64_t i = b * kChainBlock; i < hi; ++i) {
          const double* row = prev == nullptr
                                  ? kStart
                                  : kMove[(*prev)[static_cast<size_t>(i)]];
          const double u = rng.UniformDouble();
          cur[static_cast<size_t>(i)] =
              u < row[0] ? 0 : (u < row[0] + row[1] ? 1 : 2);
        }
      }
    });
  }
  return in;
}

ld::core::FixedWindowSynthesizer::Options FixedWindowOptions(
    uint64_t seed, ld::util::ThreadPool* pool) {
  ld::core::FixedWindowSynthesizer::Options opt;
  opt.horizon = kHorizon;
  opt.window_k = kWindowK;
  opt.rho = kRho;
  opt.seed = seed;
  opt.pool = pool;
  return opt;
}

ld::core::CumulativeSynthesizer::Options CumulativeOptions(
    uint64_t seed, ld::util::ThreadPool* pool) {
  ld::core::CumulativeSynthesizer::Options opt;
  opt.horizon = kHorizon;
  opt.rho = kRho;
  opt.seed = seed;
  opt.pool = pool;
  return opt;
}

ld::core::CategoricalWindowSynthesizer::Options CategoricalOptions(
    uint64_t seed, ld::util::ThreadPool* pool) {
  ld::core::CategoricalWindowSynthesizer::Options opt;
  opt.horizon = kHorizon;
  opt.window_k = kWindowK;
  opt.alphabet = kAlphabet;
  opt.rho = kRho;
  opt.seed = seed;
  opt.pool = pool;
  return opt;
}

uint32_t DigestLog(uint32_t crc, const ld::core::ReleaseLog& log) {
  for (const auto& r : log.window_releases()) {
    crc = DigestBytes(crc, &r.t, sizeof(r.t));
    crc = DigestInts(crc, r.histogram);
  }
  for (const auto& r : log.cumulative_releases()) {
    crc = DigestBytes(crc, &r.t, sizeof(r.t));
    crc = DigestInts(crc, r.thresholds);
  }
  for (const auto& r : log.categorical_releases()) {
    crc = DigestBytes(crc, &r.t, sizeof(r.t));
    crc = DigestInts(crc, r.histogram);
  }
  return crc;
}

bool LogsEqual(const ld::core::ReleaseLog& a, const ld::core::ReleaseLog& b) {
  auto window_eq = [](const ld::core::WindowRelease& x,
                      const ld::core::WindowRelease& y) {
    return x.t == y.t && x.window_k == y.window_k && x.npad == y.npad &&
           x.true_n == y.true_n && x.histogram == y.histogram;
  };
  auto cumulative_eq = [](const ld::core::CumulativeRelease& x,
                          const ld::core::CumulativeRelease& y) {
    return x.t == y.t && x.thresholds == y.thresholds;
  };
  auto categorical_eq = [](const ld::core::CategoricalRelease& x,
                           const ld::core::CategoricalRelease& y) {
    return x.t == y.t && x.window_k == y.window_k &&
           x.alphabet == y.alphabet && x.npad == y.npad &&
           x.true_n == y.true_n && x.histogram == y.histogram;
  };
  return std::equal(a.window_releases().begin(), a.window_releases().end(),
                    b.window_releases().begin(), b.window_releases().end(),
                    window_eq) &&
         std::equal(a.cumulative_releases().begin(),
                    a.cumulative_releases().end(),
                    b.cumulative_releases().begin(),
                    b.cumulative_releases().end(), cumulative_eq) &&
         std::equal(a.categorical_releases().begin(),
                    a.categorical_releases().end(),
                    b.categorical_releases().begin(),
                    b.categorical_releases().end(), categorical_eq);
}

std::vector<ld::query::WindowPredicatePtr> QuarterlyPredicates() {
  return {ld::query::MakeAtLeastOnes(kWindowK, 1),
          ld::query::MakeAtLeastOnes(kWindowK, 2),
          ld::query::MakeConsecutiveOnes(kWindowK, 2),
          ld::query::MakeAllOnes(kWindowK)};
}

}  // namespace perfbench
