// Fixed time window queries (paper Section 2.1).
//
// A width-k' window predicate q maps the most recent k' bits of a user's
// stream to {0,1}; it extends to a counting query by averaging over users.
// Any predicate of width k' <= k is a 0/1-weighted linear combination of the
// width-k histogram bins a FixedWindowSynthesizer preserves, so it can be
// answered from the synthetic data at no extra privacy cost — the property
// the paper's Figure 1/3 experiments exercise.

#ifndef LONGDP_QUERY_WINDOW_QUERY_H_
#define LONGDP_QUERY_WINDOW_QUERY_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/longitudinal_dataset.h"
#include "util/bits.h"
#include "util/status.h"

namespace longdp {
namespace query {

/// \brief Predicate over the most recent `width()` bits of a stream.
class WindowPredicate {
 public:
  virtual ~WindowPredicate() = default;

  /// The window width k' of this predicate.
  virtual int width() const = 0;

  /// Whether the width()-bit suffix pattern satisfies the predicate.
  virtual bool Matches(util::Pattern suffix) const = 0;

  /// Human-readable name for reports.
  virtual std::string name() const = 0;

  /// Number of width()-bit patterns satisfying the predicate. Used by the
  /// debiaser (the padding contributes n_pad per matching extended bin).
  int64_t MatchingPatternCount() const;
};

using WindowPredicatePtr = std::shared_ptr<const WindowPredicate>;

/// q^t_s: the window equals the specific pattern `s` of width k.
WindowPredicatePtr MakePatternEquals(util::Pattern s, int k);

/// At least `m` ones in the window (e.g. "in poverty at least m months of
/// the quarter").
WindowPredicatePtr MakeAtLeastOnes(int k, int m);

/// At least `run` consecutive ones in the window.
WindowPredicatePtr MakeConsecutiveOnes(int k, int run);

/// All `k` window bits are one.
WindowPredicatePtr MakeAllOnes(int k);

/// Arbitrary predicate from a function (for tests and custom analyses).
WindowPredicatePtr MakeCustomPredicate(int k, std::string name,
                                       std::function<bool(util::Pattern)> fn);

/// Fraction of users in `dataset` whose width-k' window ending at time t
/// satisfies the predicate (bits before round 1 read as 0, the paper's
/// convention). Requires 1 <= t <= dataset.rounds().
Result<double> EvaluateOnDataset(const WindowPredicate& pred,
                                 const data::LongitudinalDataset& dataset,
                                 int64_t t);

/// Count of records matching the predicate given a histogram over width-
/// `hist_width` patterns (hist_width >= pred.width()): sums the bins whose
/// suffix matches. The span form is the primitive — it runs in place over
/// any contiguous int64 column (including a release served straight off an
/// mmap'd archive, with no rehydration copy). InvalidArgument if the sum
/// overflows int64, which only a forged histogram can make it do.
Result<int64_t> CountOnHistogram(const WindowPredicate& pred,
                                 std::span<const int64_t> hist,
                                 int hist_width);
Result<int64_t> CountOnHistogram(const WindowPredicate& pred,
                                 const std::vector<int64_t>& hist,
                                 int hist_width);

/// \brief Real-weighted linear combination of width-k pattern indicators,
/// q(x) = sum_s w_s * I(window = s) — the general query family of
/// Section 3's "linear combination" discussion.
class LinearWindowQuery {
 public:
  /// weights.size() must be 2^k.
  static Result<LinearWindowQuery> Create(int k, std::vector<double> weights);

  /// Builds the 0/1-weight representation of a predicate, lifted to width
  /// `k >= pred.width()`.
  static Result<LinearWindowQuery> FromPredicate(const WindowPredicate& pred,
                                                 int k);

  int width() const { return k_; }
  const std::vector<double>& weights() const { return weights_; }

  /// L2 norm of the weights (the paper's error bound scales with ||w||_2).
  double WeightL2Norm() const;

  /// sum_s w_s * hist[s]; hist must be over width-k patterns.
  Result<double> EvaluateOnHistogram(const std::vector<int64_t>& hist) const;

  /// Average of weights over users' width-k windows at time t.
  Result<double> EvaluateOnDataset(const data::LongitudinalDataset& dataset,
                                   int64_t t) const;

 private:
  LinearWindowQuery(int k, std::vector<double> weights)
      : k_(k), weights_(std::move(weights)) {}
  int k_;
  std::vector<double> weights_;
};

}  // namespace query
}  // namespace longdp

#endif  // LONGDP_QUERY_WINDOW_QUERY_H_
