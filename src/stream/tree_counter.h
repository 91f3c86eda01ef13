// Tree-based aggregation stream counter (paper Algorithm 3; Dwork-Naor-
// Pitassi-Rothblum '10, Chan-Shi-Song '11), with discrete Gaussian noise.
//
// The streaming formulation keeps one pending partial sum alpha_j per binary
// level j. At step t, the lowest set bit of t determines the level i whose
// node completes: alpha_i absorbs all lower pending sums plus z_t, receives
// fresh noise, and the noisy prefix sum is the sum of noisy nodes at the set
// bits of t — the dyadic decomposition of [1, t], walked iteratively over
// the set bits rather than by scanning every level.
//
// Privacy: one user changes one z_t by 1, which touches at most L =
// floor(log2 T) + 1 noisy nodes (one per level containing leaf t). With
// per-node variance sigma^2 = L / (2 rho), composition gives rho-zCDP for
// the whole output sequence. (The paper states sigma^2 = log T / (2 rho);
// we use the exact level count.)
//
// Randomness: level j's noise comes from its own substream stream.Leaf(j),
// so the node completing at step t draws word number (completions of level
// j so far) of a stream addressed by (seed, ..., level) — independent of
// every other counter in a bank, which is what lets CounterBank advance its
// counters across ThreadPool shards without perturbing any release.
//
// Hot path: stream::CounterBank advances a whole bank of tree counters per
// round through the non-virtual Step() below, with the node noise scale
// precomputed once at construction (node_sigma2()).

#ifndef LONGDP_STREAM_TREE_COUNTER_H_
#define LONGDP_STREAM_TREE_COUNTER_H_

#include <bit>
#include <vector>

#include "dp/noise_sampler.h"
#include "stream/stream_counter.h"

namespace longdp {
namespace stream {

class TreeCounter : public StreamCounter {
 public:
  /// Prefer TreeCounterFactory::Create, which validates arguments.
  TreeCounter(int64_t horizon, double rho, const util::SubstreamRng& stream);

  Result<int64_t> Observe(int64_t z) override;
  int64_t steps() const override { return t_; }
  int64_t horizon() const override { return horizon_; }
  double rho() const override { return rho_; }
  double ErrorBound(double beta, int64_t t) const override;
  std::string name() const override { return "tree"; }

  /// Non-virtual single-step advance used by CounterBank's batched observe
  /// path (and by Observe after its range check). The caller must ensure
  /// steps() < horizon(); behavior is identical to Observe. One discrete
  /// Gaussian draw per call from the completing level's substream, scale
  /// taken from the cached level sigmas.
  int64_t Step(int64_t z) {
    ++t_;
    const uint64_t ut = static_cast<uint64_t>(t_);
    // Level of the node that completes at time t: lowest set bit of t.
    const int i = std::countr_zero(ut);
    // alpha_i <- sum of all lower pending sums + z_t; lower levels reset.
    int64_t acc = z;
    for (int j = 0; j < i; ++j) {
      acc += alpha_[static_cast<size_t>(j)];
      alpha_[static_cast<size_t>(j)] = 0;
      alpha_noisy_[static_cast<size_t>(j)] = 0;
    }
    alpha_[static_cast<size_t>(i)] = acc;
    alpha_noisy_[static_cast<size_t>(i)] =
        acc + noise_.Draw(&level_streams_[static_cast<size_t>(i)]);
    // Prefix sum = dyadic decomposition of [1, t]: iterate the set bits of
    // t directly (bits &= bits - 1 clears the lowest one).
    int64_t s = 0;
    for (uint64_t bits = ut; bits != 0; bits &= bits - 1) {
      s += alpha_noisy_[static_cast<size_t>(std::countr_zero(bits))];
    }
    return s;
  }

  /// Number of binary levels L = floor(log2 T) + 1.
  int levels() const { return levels_; }
  /// The noise variance L / (2 rho) shared by every level, computed once
  /// at construction — the hot path never recomputes a scale.
  double node_sigma2() const { return sigma2_; }

 private:
  int64_t horizon_;
  double rho_;
  int levels_;
  double sigma2_;  // per-node noise scale, cached at construction
  // Batched sampler for sigma2_: same draws as the one-shot function, with
  // the scale constants and chunked word generation amortized (see
  // dp/noise_sampler.h).
  dp::NoiseSampler noise_;
  int64_t t_ = 0;
  std::vector<int64_t> alpha_;        // pending true partial sums per level
  std::vector<int64_t> alpha_noisy_;  // their released noisy values
  // Per-level noise substreams, keyed stream.Leaf(j) at construction.
  std::vector<util::SubstreamRng> level_streams_;
};

class TreeCounterFactory : public StreamCounterFactory {
 public:
  Result<std::unique_ptr<StreamCounter>> Create(
      int64_t horizon, double rho,
      const util::SubstreamRng& stream) const override;
  std::string name() const override { return "tree"; }
};

}  // namespace stream
}  // namespace longdp

#endif  // LONGDP_STREAM_TREE_COUNTER_H_
