// Local-model baselines for longitudinal frequency tracking — the related
// work the paper's Section 1.1 discusses (Google's RAPPOR, Erlingsson et
// al. '19, Joseph et al. '18). These solve (only) the k = 1 fixed-window
// problem: tracking the population-level mean of one evolving bit, with
// each user randomizing locally before reporting.
//
// Two report strategies are provided:
//
//  * kFreshPerRound — classic binary randomized response each round with
//    per-round budget epsilon_0 = epsilon / T. User-level epsilon-DP for
//    the whole horizon unconditionally; error scales like
//    T / (epsilon sqrt(n)), the poly(T) hit the central model avoids.
//
//  * kMemoized — RAPPOR's permanent response: each user draws ONE
//    randomized value per true value (memoizing both the response for 0
//    and the response for 1, with per-value budget epsilon / (2 F) for an
//    assumed bound F on the number of times the bit flips) and replays it
//    whenever the true bit repeats. Under the paper-noted heuristic that
//    bits flip at most F times, the whole sequence is user-level
//    epsilon-DP, and the error does not grow with T — but correlated
//    reports leak trajectory structure beyond the k=1 mean, which is
//    precisely why the central algorithms of this library exist.
//
// The aggregate estimator unbiases the mean report:
//    p_hat = (mean_report - q) / (p - q),
// where p = Pr[report 1 | true 1], q = Pr[report 1 | true 0].

#ifndef LONGDP_LOCAL_RANDOMIZED_RESPONSE_H_
#define LONGDP_LOCAL_RANDOMIZED_RESPONSE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/longitudinal_dataset.h"
#include "util/rng.h"
#include "util/status.h"

namespace longdp {
namespace local {

enum class ReportStrategy {
  kFreshPerRound,
  kMemoized,
};

const char* ReportStrategyName(ReportStrategy strategy);

/// \brief Simulates a fleet of local randomizers and the server-side
/// aggregator for one evolving bit per user.
class LocalFrequencyOracle {
 public:
  struct Options {
    int64_t horizon = 0;     ///< T
    double epsilon = 0.0;    ///< total user-level (pure) DP budget
    ReportStrategy strategy = ReportStrategy::kFreshPerRound;
    /// kMemoized only: assumed bound on per-user bit flips (the paper's
    /// Section 1.1 notes the Erlingsson et al. error scales with this).
    int64_t flip_bound = 3;
  };

  static Result<std::unique_ptr<LocalFrequencyOracle>> Create(
      const Options& options);

  /// Consumes round t's true bits (population fixed by the first call) and
  /// returns the server's unbiased estimate of the round-t mean.
  Result<double> ObserveRound(data::RoundView round, util::Rng* rng);

  int64_t t() const { return t_; }

  /// Pr[report 1 | true 1] for the per-report randomizer in use.
  double flip_keep_prob() const { return p_; }
  /// Pr[report 1 | true 0].
  double flip_lie_prob() const { return q_; }
  /// Per-report pure-DP budget.
  double per_report_epsilon() const { return eps0_; }

  /// Standard deviation of the round estimate for population n (used by
  /// the bench to draw the theory line): sqrt(p(1-p)... ) upper bounded by
  /// 1 / (2 (p - q) sqrt(n)).
  double EstimateStddevBound(int64_t n) const;

 private:
  explicit LocalFrequencyOracle(const Options& options);

  Options options_;
  double eps0_ = 0.0;
  double p_ = 0.0;
  double q_ = 0.0;
  int64_t n_ = -1;
  int64_t t_ = 0;
  // kMemoized: per-user memoized responses for true values 0 and 1;
  // -1 = not drawn yet.
  std::vector<int8_t> memo_zero_;
  std::vector<int8_t> memo_one_;
};

}  // namespace local
}  // namespace longdp

#endif  // LONGDP_LOCAL_RANDOMIZED_RESPONSE_H_
