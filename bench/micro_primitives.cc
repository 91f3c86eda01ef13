// Ablation A6 (part 1): google-benchmark microbenchmarks for the DP and
// stream-counter primitives — the per-operation costs that determine
// whether the synthesizers can run at survey scale in real time.

#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "dp/discrete_gaussian.h"
#include "dp/noise_sampler.h"
#include "stream/counter_factory.h"
#include "util/batch_sampler.h"
#include "util/flat_groups.h"
#include "util/simd/simd.h"
#include "util/substream.h"

namespace {

using longdp::util::BatchSampler;
using longdp::util::FlatGroups;
using longdp::util::SubstreamRng;

void BM_DiscreteGaussianSample(benchmark::State& state) {
  const double sigma2 = static_cast<double>(state.range(0));
  SubstreamRng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(longdp::dp::SampleDiscreteGaussian(sigma2, &rng));
  }
}
BENCHMARK(BM_DiscreteGaussianSample)->Arg(1)->Arg(100)->Arg(1000)->Arg(5000);

void BM_DiscreteLaplaceSample(benchmark::State& state) {
  const double s = static_cast<double>(state.range(0));
  SubstreamRng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(longdp::dp::SampleDiscreteLaplace(s, &rng));
  }
}
BENCHMARK(BM_DiscreteLaplaceSample)->Arg(1)->Arg(10)->Arg(100);

void BM_BernoulliExpNeg(benchmark::State& state) {
  const double gamma = static_cast<double>(state.range(0)) / 10.0;
  SubstreamRng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(longdp::dp::SampleBernoulliExpNeg(gamma, &rng));
  }
}
BENCHMARK(BM_BernoulliExpNeg)->Arg(1)->Arg(10)->Arg(30);

void BM_StreamCounterFullRun(benchmark::State& state) {
  const int64_t T = state.range(0);
  const std::string name =
      longdp::stream::RegisteredCounterNames()[static_cast<size_t>(
          state.range(1))];
  auto factory = longdp::stream::MakeCounterFactory(name).value();
  const longdp::util::SubstreamRng stream(
      4, longdp::util::substream::kCounterNoise);
  for (auto _ : state) {
    auto counter = factory->Create(T, 0.1, stream).value();
    for (int64_t t = 1; t <= T; ++t) {
      benchmark::DoNotOptimize(counter->Observe(t % 3).value());
    }
  }
  state.SetItemsProcessed(state.iterations() * T);
  state.SetLabel(name);
}
BENCHMARK(BM_StreamCounterFullRun)
    ->ArgsProduct({{12, 256, 4096}, {0, 1, 2, 3}});

void BM_RngUniformInt(benchmark::State& state) {
  SubstreamRng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.UniformInt(12345));
  }
}
BENCHMARK(BM_RngUniformInt);

// ---------------------------------------------------------------------------
// Batched stage-2 sampling phases: the per-draw Rng::UniformInt baseline
// (one rejection-threshold division per draw — the pre-BatchSampler stage-2
// idiom) against util::BatchSampler's Lemire multiply-shift bulk path. The
// acceptance bar for the batched engine is >= 1.5x on the bounded-uniform
// fill at stage-2-typical bounds.

void BM_BoundedUniformPerDraw(benchmark::State& state) {
  const uint64_t bound = static_cast<uint64_t>(state.range(0));
  SubstreamRng rng(6);
  std::vector<uint64_t> out(4096);
  for (auto _ : state) {
    for (auto& v : out) v = rng.UniformInt(bound);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_BoundedUniformPerDraw)->Arg(713)->Arg(12345)->Arg(1 << 20);

void BM_BoundedUniformBatched(benchmark::State& state) {
  const uint64_t bound = static_cast<uint64_t>(state.range(0));
  SubstreamRng rng(6);
  BatchSampler sampler(&rng);
  std::vector<uint64_t> out(4096);
  for (auto _ : state) {
    sampler.BoundedBulk(bound, out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_BoundedUniformBatched)->Arg(713)->Arg(12345)->Arg(1 << 20);

// The stage-2 selection shapes: a partial Fisher-Yates promoting k of n
// records, hand-rolled on Rng::UniformInt (old) vs BatchSampler (new).

void BM_PartialShufflePerDraw(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t k = state.range(1);
  SubstreamRng rng(7);
  std::vector<int64_t> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  for (auto _ : state) {
    int64_t* data = v.data();
    for (int64_t i = 0; i < k; ++i) {
      int64_t j = i + static_cast<int64_t>(
                          rng.UniformInt(static_cast<uint64_t>(n - i)));
      std::swap(data[i], data[j]);
    }
    benchmark::DoNotOptimize(data);
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_PartialShufflePerDraw)
    ->ArgsProduct({{4096, 65536}, {1024, 4096}});

void BM_PartialShuffleBatched(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t k = state.range(1);
  SubstreamRng rng(7);
  BatchSampler sampler(&rng);
  std::vector<int64_t> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  for (auto _ : state) {
    sampler.PartialShuffle(v.data(), n, k);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_PartialShuffleBatched)
    ->ArgsProduct({{4096, 65536}, {1024, 4096}});

// Record regrouping for the categorical slide: ragged vector<vector>
// push_back (old) vs the FlatGroups counting-sort scatter (new). Keys are
// a fixed pseudo-random overlap assignment. As in the synthesizers, the
// per-group totals are known up front (from the slide targets), so the
// counting-sort phase declares counts per group rather than re-counting
// records.

void BM_RegroupRagged(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t groups = static_cast<size_t>(state.range(1));
  SubstreamRng key_rng(8);
  std::vector<uint32_t> key(m);
  for (auto& k : key) {
    k = static_cast<uint32_t>(key_rng.UniformInt(groups));
  }
  std::vector<std::vector<int64_t>> out(groups);
  for (auto _ : state) {
    for (auto& g : out) g.clear();
    for (size_t r = 0; r < m; ++r) {
      out[key[r]].push_back(static_cast<int64_t>(r));
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m));
}
BENCHMARK(BM_RegroupRagged)->ArgsProduct({{1 << 16, 1 << 20}, {256}});

void BM_RegroupCountingSort(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t groups = static_cast<size_t>(state.range(1));
  SubstreamRng key_rng(8);
  std::vector<uint32_t> key(m);
  for (auto& k : key) {
    k = static_cast<uint32_t>(key_rng.UniformInt(groups));
  }
  std::vector<int64_t> group_counts(groups, 0);
  for (size_t r = 0; r < m; ++r) ++group_counts[key[r]];
  FlatGroups out;
  for (auto _ : state) {
    out.Reset(groups);
    for (size_t g = 0; g < groups; ++g) out.AddCount(g, group_counts[g]);
    out.BuildOffsets();
    uint32_t* slots = out.data();
    for (size_t r = 0; r < m; ++r) {
      slots[out.Claim(key[r], 1)] = static_cast<uint32_t>(r);
    }
    benchmark::DoNotOptimize(out.group_data(0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m));
}
BENCHMARK(BM_RegroupCountingSort)->ArgsProduct({{1 << 16, 1 << 20}, {256}});

// ---------------------------------------------------------------------------
// Batched noise phases: the per-leaf one-shot discrete Gaussian (the old
// NoisyPaddedHistogram idiom — one keyed leaf substream and one
// SampleDiscreteGaussian call per bin) against dp::NoiseSampler::FillLeaves,
// which runs the identical sampling chain from chunked
// util::simd::FillStreamWords buffers. Values are bit-identical by the
// stream-compatibility contract; only the wall-clock differs.

void BM_DiscreteGaussianPerDraw(benchmark::State& state) {
  const double sigma2 = static_cast<double>(state.range(0));
  const longdp::util::SubstreamRng parent(
      9, longdp::util::substream::kHistogramNoise);
  std::vector<int64_t> out(4096);
  for (auto _ : state) {
    for (size_t b = 0; b < out.size(); ++b) {
      longdp::util::SubstreamRng leaf =
          parent.Leaf(static_cast<uint64_t>(b));
      out[b] = longdp::dp::SampleDiscreteGaussian(sigma2, &leaf);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_DiscreteGaussianPerDraw)->Arg(100)->Arg(1000)->Arg(6000);

void BM_DiscreteGaussianBatched(benchmark::State& state) {
  const double sigma2 = static_cast<double>(state.range(0));
  const longdp::dp::NoiseSampler sampler =
      longdp::dp::NoiseSampler::Gaussian(sigma2);
  const longdp::util::SubstreamRng parent(
      9, longdp::util::substream::kHistogramNoise);
  std::vector<int64_t> out(4096);
  for (auto _ : state) {
    sampler.FillLeaves(parent, out.size(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_DiscreteGaussianBatched)->Arg(100)->Arg(1000)->Arg(6000);

// The fused observe-phase histogram: per-user window-code counting (the
// old slide-and-count inner loop) against the bit-plane PlaneHistogram
// kernel on whatever backend this host dispatches to. k=4 is the paper's
// quarterly window (2^k = 16 bins), where the kernel's cost — O(2^k) plane
// intersections over the packed words — is far below one pass over the
// lanes. The k=8 point is the adversarial end: uniformly random codes
// defeat the zero-branch pruning, so the per-lane loop wins there; the
// synthesizers' real histograms are clustered (and the experiments run
// k <= 4), which is the regime the kernel is dispatched in. The label
// records the active backend so the forced-scalar CI job's table is
// self-describing.

void BM_HistogramScalar(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const size_t lanes = size_t{1} << 18;
  longdp::util::SubstreamRng rng(10, longdp::util::substream::kGeneric);
  std::vector<uint32_t> code(lanes);
  const uint32_t mask = (uint32_t{1} << k) - 1;
  for (auto& c : code) c = static_cast<uint32_t>(rng.Next()) & mask;
  std::vector<int64_t> hist(size_t{1} << k);
  for (auto _ : state) {
    hist.assign(hist.size(), 0);
    for (uint32_t c : code) ++hist[c];
    benchmark::DoNotOptimize(hist.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(lanes));
}
BENCHMARK(BM_HistogramScalar)->Arg(4)->Arg(8);

void BM_HistogramSimd(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const size_t lanes = size_t{1} << 18;
  const size_t num_words = lanes / 64;
  longdp::util::SubstreamRng rng(10, longdp::util::substream::kGeneric);
  // Same codes as the scalar variant, bit-sliced across k planes.
  std::vector<std::vector<uint64_t>> plane_words(
      static_cast<size_t>(k), std::vector<uint64_t>(num_words, 0));
  const uint32_t mask = (uint32_t{1} << k) - 1;
  for (size_t l = 0; l < lanes; ++l) {
    const uint32_t c = static_cast<uint32_t>(rng.Next()) & mask;
    for (int j = 0; j < k; ++j) {
      if ((c >> j) & 1) {
        plane_words[static_cast<size_t>(j)][l / 64] |= uint64_t{1}
                                                       << (l % 64);
      }
    }
  }
  std::vector<const uint64_t*> planes;
  for (int j = 0; j < k; ++j) {
    planes.push_back(plane_words[static_cast<size_t>(j)].data());
  }
  std::vector<int64_t> hist(size_t{1} << k);
  for (auto _ : state) {
    hist.assign(hist.size(), 0);
    longdp::util::simd::PlaneHistogram(planes.data(), k, nullptr, num_words,
                                       hist.data());
    benchmark::DoNotOptimize(hist.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(lanes));
  state.SetLabel(longdp::util::simd::IsaLevelName(
      longdp::util::simd::ActiveIsaLevel()));
}
BENCHMARK(BM_HistogramSimd)->Arg(4)->Arg(8);

}  // namespace
