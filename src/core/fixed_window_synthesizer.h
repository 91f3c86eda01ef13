// Algorithm 1 of the paper: continual private synthetic data preserving
// fixed time window queries over binary data.
//
// This is the A = 2 instance of the window synthesizer
// (CategoricalWindowSynthesizer, which documents the two stages, the
// accounting and the clamping): a typed front end that owns a binary
// engine, takes rounds as packed data::RoundViews, and answers window
// predicates on the synthetic histogram. At A = 2 the consistency solve is
// the paper's: p^t_{z0} + p^t_{z1} = p^{t-1}_{0z} + p^{t-1}_{1z} via the
// correction terms Delta_z (+/- the random half-integer rounding).

#ifndef LONGDP_CORE_FIXED_WINDOW_SYNTHESIZER_H_
#define LONGDP_CORE_FIXED_WINDOW_SYNTHESIZER_H_

#include <iosfwd>
#include <memory>
#include <vector>

#include "core/categorical_synthesizer.h"
#include "core/synthetic_cohort.h"
#include "data/round_view.h"
#include "dp/accountant.h"
#include "query/debias.h"
#include "query/window_query.h"
#include "util/status.h"

namespace longdp {
namespace core {

class FixedWindowSynthesizer {
 public:
  /// window_k is in [1, kMaxPlanes] (core/limits.h): one bit plane per
  /// window round.
  using Options = WindowOptions;
  using Stats = CategoricalWindowSynthesizer::Stats;

  static Result<std::unique_ptr<FixedWindowSynthesizer>> Create(
      const Options& options);

  /// Consumes round t's original-data bits (the population size n is fixed
  /// by the first call). Before t = k the data is only buffered; from t = k
  /// onward each call performs one release + cohort update.
  Status ObserveRound(data::RoundView round) {
    return engine_->ObserveRound(round);
  }

  /// Byte-per-bit convenience overload: rejects entries other than 0/1
  /// before any state changes, then bit-packs `bits` into the window ring.
  Status ObserveRound(const std::vector<uint8_t>& bits) {
    return engine_->ObserveRound(bits);
  }

  /// True once the initial synthetic dataset exists (t >= k).
  bool has_release() const { return engine_->has_release(); }

  /// Rounds observed so far.
  int64_t t() const { return engine_->t(); }
  int64_t horizon() const { return engine_->horizon(); }
  int window_k() const { return engine_->window_k(); }
  int64_t npad() const { return engine_->npad(); }
  int64_t population() const { return engine_->population(); }
  double sigma2() const { return engine_->sigma2(); }

  /// The persistent synthetic cohort (valid once has_release()).
  const SyntheticCohort& cohort() const { return engine_->cohort(); }

  /// Current synthetic histogram p^t over width-k patterns.
  const std::vector<int64_t>& SyntheticHistogram() const {
    return engine_->SyntheticHistogram();
  }

  /// Public padding facts for the debiaser.
  query::PaddingSpec padding_spec() const;

  /// Count of synthetic records currently matching `pred` (width <= k).
  Result<int64_t> SyntheticCount(const query::WindowPredicate& pred) const;

  /// pred's proportion computed directly on the synthetic data
  /// (count / n*) — the paper's "Synthetic Data Results" panels.
  Result<double> BiasedAnswer(const query::WindowPredicate& pred) const;

  /// pred's proportion after subtracting the padding query answer and
  /// normalizing by n — the paper's "Debiased Results" panels.
  Result<double> DebiasedAnswer(const query::WindowPredicate& pred) const;

  const Stats& stats() const { return engine_->stats(); }
  const dp::ZCdpAccountant& accountant() const {
    return engine_->accountant();
  }

  /// The SaveCheckpoint format version (binary since v5; derived-state
  /// since v6; the categorical layout at A = 2 since v7).
  static constexpr int kCheckpointVersion = 7;

  /// The engine's checkpoint (CategoricalWindowSynthesizer::SaveCheckpoint)
  /// under the fixed-window family.
  Status SaveCheckpoint(std::ostream& out) const;

  /// Restores a synthesizer from SaveCheckpoint output; refuses any
  /// alphabet but A = 2.
  static Result<std::unique_ptr<FixedWindowSynthesizer>> LoadCheckpoint(
      std::istream& in);

  /// Re-attaches a worker pool (e.g. after LoadCheckpoint). Non-owning;
  /// must outlive the synthesizer. Null reverts to serial.
  void set_pool(util::ThreadPool* pool) { engine_->set_pool(pool); }

 private:
  explicit FixedWindowSynthesizer(
      std::unique_ptr<CategoricalWindowSynthesizer> engine)
      : engine_(std::move(engine)) {}

  /// The engine's checkpoint layout under family "fixed-window", A = 2
  /// only.
  static const CategoricalWindowSynthesizer::Codec kCodec;

  std::unique_ptr<CategoricalWindowSynthesizer> engine_;
};

}  // namespace core
}  // namespace longdp

#endif  // LONGDP_CORE_FIXED_WINDOW_SYNTHESIZER_H_
