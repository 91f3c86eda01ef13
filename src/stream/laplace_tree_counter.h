// Tree-based aggregation with discrete Laplace noise — the original
// pure-epsilon-DP instantiation of Algorithm 3 (Dwork-Naor-Pitassi-Rothblum
// '10, Chan-Shi-Song '11), which the paper notes preceded the Gaussian
// variant.
//
// Budget interface: to stay interchangeable behind StreamCounter (whose
// budget is rho-zCDP), the counter converts the zCDP budget to a pure-DP
// budget via the tight implication "epsilon-DP implies (epsilon^2/2)-zCDP"
// (Bun-Steinke'16 Prop. 1.4): it targets epsilon = sqrt(2 rho) total, split
// evenly across the L tree levels, so its release sequence is
// (epsilon, 0)-DP AND rho-zCDP simultaneously. Per-node noise is discrete
// Laplace with scale L / epsilon (sensitivity 1 per node).
//
// Randomness: level j's noise comes from its own substream stream.Leaf(j),
// mirroring TreeCounter's addressing.
//
// Compared with the Gaussian tree at equal rho, the Laplace tree pays
// heavier tails — visible in bench/counter_ablation — but offers the
// strictly stronger pure-DP guarantee.

#ifndef LONGDP_STREAM_LAPLACE_TREE_COUNTER_H_
#define LONGDP_STREAM_LAPLACE_TREE_COUNTER_H_

#include <vector>

#include "dp/noise_sampler.h"
#include "stream/stream_counter.h"

namespace longdp {
namespace stream {

class LaplaceTreeCounter : public StreamCounter {
 public:
  LaplaceTreeCounter(int64_t horizon, double rho,
                     const util::SubstreamRng& stream);

  Result<int64_t> Observe(int64_t z) override;
  int64_t steps() const override { return t_; }
  int64_t horizon() const override { return horizon_; }
  double rho() const override { return rho_; }
  double ErrorBound(double beta, int64_t t) const override;
  std::string name() const override { return "laplace-tree"; }

  /// Total pure-DP budget epsilon = sqrt(2 rho).
  double epsilon() const { return epsilon_; }
  /// Per-node discrete Laplace scale, L / epsilon.
  double node_scale() const { return scale_; }
  int levels() const { return levels_; }

 private:
  int64_t horizon_;
  double rho_;
  double epsilon_;
  int levels_;
  double scale_;
  // Batched Laplace sampler for scale_; degenerate (scale_ <= 0) draws 0
  // without consuming words, matching the old "skip the call" guard.
  dp::NoiseSampler noise_;
  int64_t t_ = 0;
  std::vector<int64_t> alpha_;
  std::vector<int64_t> alpha_noisy_;
  // Per-level noise substreams, keyed stream.Leaf(j) at construction.
  std::vector<util::SubstreamRng> level_streams_;
};

class LaplaceTreeCounterFactory : public StreamCounterFactory {
 public:
  Result<std::unique_ptr<StreamCounter>> Create(
      int64_t horizon, double rho,
      const util::SubstreamRng& stream) const override;
  std::string name() const override { return "laplace-tree"; }
};

}  // namespace stream
}  // namespace longdp

#endif  // LONGDP_STREAM_LAPLACE_TREE_COUNTER_H_
