// Tree-based aggregation stream counter (paper Algorithm 3; Dwork-Naor-
// Pitassi-Rothblum '10, Chan-Shi-Song '11), with discrete Gaussian or
// discrete Laplace node noise chosen at construction.
//
// The streaming formulation keeps one pending partial sum alpha_j per binary
// level j. At step t, the lowest set bit of t determines the level i whose
// node completes: alpha_i absorbs all lower pending sums plus z_t, receives
// fresh noise, and the noisy prefix sum is the sum of noisy nodes at the set
// bits of t — the dyadic decomposition of [1, t], walked iteratively over
// the set bits rather than by scanning every level.
//
// Privacy: one user changes one z_t by 1, which touches at most L =
// floor(log2 T) + 1 noisy nodes (one per level containing leaf t).
//  * Gaussian ("tree"): per-node variance sigma^2 = L / (2 rho), so
//    composition gives rho-zCDP for the whole output sequence. (The paper
//    states sigma^2 = log T / (2 rho); we use the exact level count.)
//  * Laplace ("laplace-tree"), the original pure-DP instantiation that
//    preceded the Gaussian variant: the zCDP budget converts to a pure-DP
//    one through "epsilon-DP implies (epsilon^2/2)-zCDP" (Bun-Steinke '16,
//    Prop. 1.4), so the tree targets epsilon = sqrt(2 rho) in total, split
//    evenly across the L levels: per-node scale L / epsilon (sensitivity 1
//    per node). The release sequence is (epsilon, 0)-DP and rho-zCDP at
//    once; at equal rho it pays heavier tails than the Gaussian tree
//    (visible in bench/counter_ablation) for the stronger guarantee.
//
// Randomness: level j's noise comes from its own substream stream.Leaf(j),
// so the node completing at step t draws word number (completions of level
// j so far) of a stream addressed by (seed, ..., level) — independent of
// every other counter in a bank, which is what lets CounterBank advance its
// counters across ThreadPool shards without perturbing any release.
//
// Hot path: stream::CounterBank advances a bank of tree counters of either
// noise family per round through the non-virtual Step() below, with the
// node noise sampler built once at construction (node_noise()).

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
  /// Prefer MakeCounterFactory("tree" or "laplace-tree")->Create, which
  /// validates arguments.
  TreeCounter(int64_t horizon, double rho, const util::SubstreamRng& stream,
              dp::NoiseSampler::Kind noise = dp::NoiseSampler::Kind::kGaussian);

  Result<int64_t> Observe(int64_t z) override;
  int64_t steps() const override { return t_; }
  int64_t horizon() const override { return horizon_; }
  double rho() const override { return rho_; }
  double ErrorBound(double beta, int64_t t) const override;
  /// "tree" for Gaussian node noise, "laplace-tree" for Laplace.
  std::string name() const override;

  /// Non-virtual single-step advance used by CounterBank's batched observe
  /// path (and by Observe after its range check). The caller must ensure
  /// steps() < horizon(); behavior is identical to Observe. One node-noise
  /// draw per call from the completing level's substream.
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
  /// The node noise every level shares, built once at construction: its
  /// kind, and its param() — sigma^2 = L / (2 rho) for Gaussian, scale
  /// L / sqrt(2 rho) for Laplace, 0 on the rho = +infinity path.
  const dp::NoiseSampler& node_noise() const { return noise_; }

 private:
  int64_t horizon_;
  double rho_;
  int levels_;
  dp::NoiseSampler noise_;
  int64_t t_ = 0;
  std::vector<int64_t> alpha_;        // pending true partial sums per level
  std::vector<int64_t> alpha_noisy_;  // their released noisy values
  // Per-level noise substreams, keyed stream.Leaf(j) at construction.
  std::vector<util::SubstreamRng> level_streams_;
};

}  // namespace stream
}  // namespace longdp

#endif  // LONGDP_STREAM_TREE_COUNTER_H_
