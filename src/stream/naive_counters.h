// Two baseline stream counters the paper's introduction and related work
// implicitly compare against:
//
//  * InputPerturbationCounter — noise each increment z_t once with variance
//    1/(2 rho) and release running sums of the noisy increments. Privacy is
//    immediate (one user touches one increment), but the error stdev grows
//    like sqrt(t) * sqrt(1/(2 rho)).
//
//  * RecomputeCounter — release a freshly noised prefix sum at every step.
//    One user's increment sits inside up to T released sums, so each release
//    needs variance T/(2 rho); per-release error is sqrt(T/(2 rho)),
//    uniformly worse than the tree counter's polylog(T) factor.
//
// Both draw one discrete Gaussian per step from a single owned substream
// (no level structure to address). Both are used by bench/counter_ablation
// to show why the tree counter (and its Honaker refinement) is the right
// default.

#ifndef LONGDP_STREAM_NAIVE_COUNTERS_H_
#define LONGDP_STREAM_NAIVE_COUNTERS_H_

#include "dp/noise_sampler.h"
#include "stream/stream_counter.h"

namespace longdp {
namespace stream {

class InputPerturbationCounter : public StreamCounter {
 public:
  InputPerturbationCounter(int64_t horizon, double rho,
                           const util::SubstreamRng& stream);

  Result<int64_t> Observe(int64_t z) override;
  int64_t steps() const override { return t_; }
  int64_t horizon() const override { return horizon_; }
  double rho() const override { return rho_; }
  double ErrorBound(double beta, int64_t t) const override;
  std::string name() const override { return "input-perturbation"; }

 private:
  int64_t horizon_;
  double rho_;
  double sigma2_;
  dp::NoiseSampler noise_;  // batched sampler for sigma2_, bit-identical
  int64_t t_ = 0;
  int64_t noisy_sum_ = 0;
  util::SubstreamRng stream_;
};

class RecomputeCounter : public StreamCounter {
 public:
  RecomputeCounter(int64_t horizon, double rho,
                   const util::SubstreamRng& stream);

  Result<int64_t> Observe(int64_t z) override;
  int64_t steps() const override { return t_; }
  int64_t horizon() const override { return horizon_; }
  double rho() const override { return rho_; }
  double ErrorBound(double beta, int64_t t) const override;
  std::string name() const override { return "recompute"; }

 private:
  int64_t horizon_;
  double rho_;
  double sigma2_;
  dp::NoiseSampler noise_;  // batched sampler for sigma2_, bit-identical
  int64_t t_ = 0;
  int64_t true_sum_ = 0;
  util::SubstreamRng stream_;
};

}  // namespace stream
}  // namespace longdp

#endif  // LONGDP_STREAM_NAIVE_COUNTERS_H_
