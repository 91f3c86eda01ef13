// Ablation A6 (part 2): end-to-end synthesizer throughput vs n, T, k —
// the cost of one full continual release at survey scale — plus the
// panel materialization and on-demand dataset statistics that consume it.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/categorical_synthesizer.h"
#include "core/cumulative_synthesizer.h"
#include "core/fixed_window_synthesizer.h"
#include "core/limits.h"
#include "core/synthetic_cohort.h"
#include "data/generators.h"
#include "util/substream.h"
#include "util/thread_pool.h"

namespace {

using longdp::core::CategoricalWindowSynthesizer;
using longdp::core::CumulativeSynthesizer;
using longdp::core::FixedWindowSynthesizer;
using longdp::core::SyntheticCohort;
using longdp::util::SubstreamRng;
namespace substream = longdp::util::substream;

void BM_FixedWindowFullRun(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t T = state.range(1);
  const int k = static_cast<int>(state.range(2));
  SubstreamRng data_rng(1, substream::kDataset);
  auto ds = longdp::data::BernoulliIid(n, T, 0.2, &data_rng).value();
  for (auto _ : state) {
    FixedWindowSynthesizer::Options opt;
    opt.horizon = T;
    opt.window_k = k;
    opt.rho = 0.005;
    opt.seed = 2;
    auto synth = FixedWindowSynthesizer::Create(opt).value();
    for (int64_t t = 1; t <= T; ++t) {
      benchmark::DoNotOptimize(synth->ObserveRound(ds.Round(t)).ok());
    }
  }
  state.SetItemsProcessed(state.iterations() * n * T);
}
BENCHMARK(BM_FixedWindowFullRun)
    ->Args({1000, 12, 3})
    ->Args({23374, 12, 3})
    ->Args({100000, 12, 3})
    ->Args({23374, 12, 5})
    ->Args({23374, 12, 8})
    ->Args({23374, 48, 3})
    ->Unit(benchmark::kMillisecond);

void BM_CumulativeFullRun(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t T = state.range(1);
  SubstreamRng data_rng(3, substream::kDataset);
  auto ds = longdp::data::BernoulliIid(n, T, 0.2, &data_rng).value();
  for (auto _ : state) {
    CumulativeSynthesizer::Options opt;
    opt.horizon = T;
    opt.rho = 0.005;
    opt.seed = 4;
    auto synth = CumulativeSynthesizer::Create(opt).value();
    for (int64_t t = 1; t <= T; ++t) {
      benchmark::DoNotOptimize(synth->ObserveRound(ds.Round(t)).ok());
    }
  }
  state.SetItemsProcessed(state.iterations() * n * T);
}
BENCHMARK(BM_CumulativeFullRun)
    ->Args({1000, 12})
    ->Args({23374, 12})
    ->Args({100000, 12})
    ->Args({23374, 48})
    ->Unit(benchmark::kMillisecond);

void BM_FixedWindowSingleRound(benchmark::State& state) {
  // Steady-state per-round cost at SIPP scale (T at the horizon cap so
  // rounds dominate).
  const int64_t n = state.range(0);
  const int64_t T = longdp::core::kMaxHorizon;
  SubstreamRng data_rng(5, substream::kDataset);
  std::vector<uint8_t> round(static_cast<size_t>(n));
  for (auto& b : round) b = data_rng.Bernoulli(0.2) ? 1 : 0;
  FixedWindowSynthesizer::Options opt;
  opt.horizon = T;
  opt.window_k = 3;
  opt.rho = 0.5;
  opt.seed = 6;
  auto synth = FixedWindowSynthesizer::Create(opt).value();
  for (auto _ : state) {
    if (synth->t() >= T) break;
    benchmark::DoNotOptimize(synth->ObserveRound(round).ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FixedWindowSingleRound)->Arg(23374)->Arg(100000);

void BM_CategoricalSingleRound(benchmark::State& state) {
  // The same steady-state round for the categorical synthesizer, with
  // sipp_release's alphabet and window (A = 3, k = 3): stage 1 on the
  // window bit planes, the noise, and the keyed stage 2.
  const int64_t n = state.range(0);
  const int64_t T = longdp::core::kMaxHorizon;
  SubstreamRng data_rng(7, substream::kDataset);
  std::vector<uint8_t> round(static_cast<size_t>(n));
  for (auto& s : round) s = static_cast<uint8_t>(data_rng.UniformInt(3));
  CategoricalWindowSynthesizer::Options opt;
  opt.horizon = T;
  opt.window_k = 3;
  opt.alphabet = 3;
  opt.rho = 0.5;
  opt.seed = 8;
  auto synth = CategoricalWindowSynthesizer::Create(opt).value();
  for (auto _ : state) {
    if (synth->t() >= T) break;
    benchmark::DoNotOptimize(synth->ObserveRound(round).ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CategoricalSingleRound)->Arg(23374)->Arg(100000);

void BM_CohortAdvance(benchmark::State& state) {
  // Stage 2 of the window synthesizers alone: one SyntheticCohort advance
  // (the keyed draws, then the regroup and the new round's symbol bits) at
  // k = 3 over an alphabet of A symbols, n records and `lanes` execution
  // lanes (1 = no pool). Every overlap group splits evenly among its
  // children, so the group sizes stay near n / A^(k-1). The cohort is
  // rebuilt, untimed, once its history reaches 64 rounds.
  const int alphabet = static_cast<int>(state.range(0));
  const int64_t n = state.range(1);
  const int lanes = static_cast<int>(state.range(2));
  constexpr int k = 3;
  const auto a = static_cast<uint64_t>(alphabet);
  const uint64_t bins = SyntheticCohort::NumBins(k, alphabet).value();
  const uint64_t overlaps = bins / a;
  std::vector<int64_t> initial(bins);
  for (uint64_t s = 0; s < bins; ++s) {
    initial[s] = n / static_cast<int64_t>(bins) +
                 (s < static_cast<uint64_t>(n) % bins ? 1 : 0);
  }
  std::unique_ptr<longdp::util::ThreadPool> pool;
  if (lanes > 1) pool = std::make_unique<longdp::util::ThreadPool>(lanes);
  const SubstreamRng root(12, substream::kCohort);
  constexpr int64_t horizon = 64;
  auto cohort = SyntheticCohort::Create(k, alphabet, initial).value();
  cohort.ReserveRounds(horizon);
  std::vector<int64_t> census(bins);
  for (auto _ : state) {
    if (cohort.rounds() >= horizon) {
      state.PauseTiming();
      cohort = SyntheticCohort::Create(k, alphabet, initial).value();
      cohort.ReserveRounds(horizon);
      state.ResumeTiming();
    }
    for (uint64_t z = 0; z < overlaps; ++z) {
      int64_t left = cohort.GroupSize(z);
      for (uint64_t c = a; c-- > 0;) {
        const int64_t take = left / static_cast<int64_t>(c + 1);
        census[z * a + c] = take;
        left -= take;
      }
    }
    const longdp::Status st = cohort.AdvanceRound(
        census, root.Derive(static_cast<uint64_t>(cohort.rounds())),
        pool.get());
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CohortAdvance)
    ->ArgNames({"A", "n", "lanes"})
    ->Args({2, 23374, 1})
    ->Args({3, 23374, 1})
    ->Args({2, 1000000, 4})
    ->Args({3, 1000000, 4})
    ->Unit(benchmark::kMicrosecond);

void BM_ToDataset(benchmark::State& state) {
  // Materializing a finished synthetic panel (n = 100,000, T = 12) as a
  // dataset: one word copy per round. Arg 0 is the fixed-window cohort,
  // arg 1 the cumulative synthesizer's records.
  constexpr int64_t n = 100000;
  constexpr int64_t T = 12;
  SubstreamRng data_rng(9, substream::kDataset);
  auto ds = longdp::data::BernoulliIid(n, T, 0.2, &data_rng).value();
  std::unique_ptr<FixedWindowSynthesizer> window;
  std::unique_ptr<CumulativeSynthesizer> cumulative;
  if (state.range(0) == 0) {
    FixedWindowSynthesizer::Options opt;
    opt.horizon = T;
    opt.window_k = 3;
    opt.rho = 0.5;
    opt.seed = 10;
    window = FixedWindowSynthesizer::Create(opt).value();
  } else {
    CumulativeSynthesizer::Options opt;
    opt.horizon = T;
    opt.rho = 0.5;
    opt.seed = 10;
    cumulative = CumulativeSynthesizer::Create(opt).value();
  }
  for (int64_t t = 1; t <= T; ++t) {
    const longdp::Status st = window != nullptr
                                  ? window->ObserveRound(ds.Round(t))
                                  : cumulative->ObserveRound(ds.Round(t));
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  for (auto _ : state) {
    auto panel = window != nullptr ? window->cohort().ToDataset(T)
                                   : cumulative->ToDataset();
    benchmark::DoNotOptimize(panel.ok());
  }
  state.SetItemsProcessed(state.iterations() * n * T);
}
BENCHMARK(BM_ToDataset)
    ->ArgName("cumulative")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void BM_CumulativeCounts(benchmark::State& state) {
  // The on-demand threshold counts S^T_b of a dataset: T bit-sliced adds
  // into bit_width(T) weight planes and one plane histogram.
  const int64_t n = state.range(0);
  constexpr int64_t T = 12;
  SubstreamRng data_rng(11, substream::kDataset);
  auto ds = longdp::data::BernoulliIid(n, T, 0.3, &data_rng).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ds.CumulativeCounts(T).ok());
  }
  state.SetItemsProcessed(state.iterations() * n * T);
}
BENCHMARK(BM_CumulativeCounts)
    ->Arg(23374)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
