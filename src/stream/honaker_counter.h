// Variance-reduced tree counter using Honaker's bottom-up estimator
// ("Efficient Use of Differentially Private Binary Trees", 2015) — the kind
// of improved concrete-accuracy counter the paper's Section 1.1 suggests
// plugging into Algorithm 2.
//
// Same noisy binary tree as TreeCounter (same privacy cost: refinement is
// pure post-processing of already-released node values). Each completed
// internal node's estimate combines its own noisy value with the sum of its
// children's refined estimates by inverse-variance weighting:
//
//   e_v   = (y_v / s^2 + (e_l + e_r) / (v_l + v_r)) / (1/s^2 + 1/(v_l+v_r))
//   var_v = 1 / (1/s^2 + 1/(v_l + v_r))
//
// so a level-j node's refined variance is strictly below s^2 for j >= 1, and
// prefix-sum error improves by a constant factor over the plain tree.
//
// Randomness: a node completing at level j draws its noise from substream
// stream.Leaf(j) — the leaf inserted at step t is a level-0 completion, and
// each binary-counter carry that merges two level-(j-1) subtrees completes
// a level-j node.

#ifndef LONGDP_STREAM_HONAKER_COUNTER_H_
#define LONGDP_STREAM_HONAKER_COUNTER_H_

#include <vector>

#include "dp/noise_sampler.h"
#include "stream/stream_counter.h"

namespace longdp {
namespace stream {

class HonakerCounter : public StreamCounter {
 public:
  HonakerCounter(int64_t horizon, double rho,
                 const util::SubstreamRng& stream);

  Result<int64_t> Observe(int64_t z) override;
  int64_t steps() const override { return t_; }
  int64_t horizon() const override { return horizon_; }
  double rho() const override { return rho_; }
  double ErrorBound(double beta, int64_t t) const override;
  std::string name() const override { return "honaker"; }

  /// Refined estimator variance of a completed level-j node.
  double LevelVariance(int level) const;

 private:
  int64_t horizon_;
  double rho_;
  int levels_;
  double sigma2_;
  // Batched sampler for sigma2_ — bit-identical draws to the one-shot
  // function with the per-draw setup amortized (dp/noise_sampler.h).
  dp::NoiseSampler noise_;
  int64_t t_ = 0;
  // Pending completed-subtree state per level: true sum, refined estimate
  // (kept in double: it is a weighted average of integers), and occupancy.
  std::vector<int64_t> true_sum_;
  std::vector<double> estimate_;
  std::vector<bool> occupied_;
  std::vector<double> level_var_;  // refined variance by level (precomputed)
  // Per-level noise substreams, keyed stream.Leaf(j) at construction.
  std::vector<util::SubstreamRng> level_streams_;
};

class HonakerCounterFactory : public StreamCounterFactory {
 public:
  Result<std::unique_ptr<StreamCounter>> Create(
      int64_t horizon, double rho,
      const util::SubstreamRng& stream) const override;
  std::string name() const override { return "honaker"; }
};

}  // namespace stream
}  // namespace longdp

#endif  // LONGDP_STREAM_HONAKER_COUNTER_H_
