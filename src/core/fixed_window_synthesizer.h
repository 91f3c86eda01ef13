// Algorithm 1 of the paper: continual private synthetic data preserving
// fixed time window queries.
//
// Per round t = k..T the synthesizer
//   (stage 1) releases a padded noisy histogram of the original data's
//             width-k window:  Chat^t_s = C^t_s + n_pad + N_Z(0, sigma^2),
//             sigma^2 = (T-k+1)/(2 rho); and
//   (stage 2) solves the sliding-window consistency constraints
//             p^t_{z0} + p^t_{z1} = p^{t-1}_{0z} + p^{t-1}_{1z} via the
//             correction terms Delta_z (+/- the random half-integer
//             rounding), then extends the persistent synthetic cohort.
//
// The entire run is rho-zCDP (Theorem 3.1): each of the T-k+1 histogram
// releases is charged rho/(T-k+1) against an internal accountant.
//
// Negative targets — which the n_pad padding makes improbable (Theorem 3.2)
// but not impossible — are clamped pairwise (preserving the consistency
// sums) and counted in stats(); experiments report that count as the
// algorithm's empirical failure indicator.

#ifndef LONGDP_CORE_FIXED_WINDOW_SYNTHESIZER_H_
#define LONGDP_CORE_FIXED_WINDOW_SYNTHESIZER_H_

#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "core/synthetic_cohort.h"
#include "data/round_view.h"
#include "dp/accountant.h"
#include "dp/noise_sampler.h"
#include "query/debias.h"
#include "query/window_query.h"
#include "util/status.h"
#include "util/substream.h"

namespace longdp {
namespace util {
class ThreadPool;
}  // namespace util

namespace core {

class FixedWindowSynthesizer {
 public:
  struct Options {
    /// T, known in advance as in the paper's model; in [k, kMaxHorizon].
    int64_t horizon = 0;
    int window_k = 0;  ///< window width k, in [1, kMaxPlanes] (core/limits.h)
    double rho = 0.0;     ///< total zCDP budget (+infinity = zero-noise path)
    /// Padding per bin; -1 selects theory::RecommendedNpad(beta_target).
    int64_t npad = -1;
    /// Target failure probability used to auto-size npad.
    double beta_target = 0.05;
    /// Root seed for every substream the synthesizer draws from: per-bin
    /// histogram noise is keyed (seed, kHistogramNoise, round, bin, draw),
    /// half-integer roundings (seed, kRounding, round, draw), and cohort
    /// extensions (seed, kCohort, round, overlap, draw). The full release
    /// log is a pure function of (options, input data) at any shard or
    /// thread count.
    uint64_t seed = 0;
    /// Optional worker pool for the sharded stage-1 work (per-user window
    /// slides, window-histogram accumulation), the per-bin noise, and the
    /// cohort's per-overlap selection shuffles. Non-owning; must outlive
    /// the synthesizer. Null runs serially. Releases are bit-identical at
    /// any shard or thread count: draws are keyed by substream addresses,
    /// and sharded histograms reduce in shard order. Not serialized by
    /// checkpoints.
    util::ThreadPool* pool = nullptr;
  };

  struct Stats {
    /// Target pairs (p_{z0}, p_{z1}) clamped because a value went negative.
    int64_t negative_clamps = 0;
    /// Random half-integer roundings performed (the b_z draws).
    int64_t rounding_draws = 0;
    /// Histogram releases performed so far (update steps).
    int64_t releases = 0;
  };

  static Result<std::unique_ptr<FixedWindowSynthesizer>> Create(
      const Options& options);

  /// Consumes round t's original-data bits (one 0/1 entry per individual;
  /// the population size n is fixed by the first call). Before t = k the
  /// data is only buffered; from t = k onward each call performs one
  /// release + cohort update. Randomness comes from the synthesizer's own
  /// substreams (Options::seed).
  Status ObserveRound(data::RoundView round);

  /// Byte-per-bit convenience overload: validates and bit-packs `bits`
  /// (rejecting entries other than 0/1 before any state changes), then
  /// runs the packed path above.
  Status ObserveRound(const std::vector<uint8_t>& bits);

  /// True once the initial synthetic dataset exists (t >= k).
  bool has_release() const { return cohort_.has_value(); }

  /// Rounds observed so far.
  int64_t t() const { return t_; }
  int64_t horizon() const { return options_.horizon; }
  int window_k() const { return options_.window_k; }
  int64_t npad() const { return npad_; }
  int64_t population() const { return n_; }
  double sigma2() const { return sigma2_; }

  /// The persistent synthetic cohort (valid once has_release()).
  const SyntheticCohort& cohort() const { return *cohort_; }

  /// Current synthetic histogram p^t over width-k patterns.
  std::vector<int64_t> SyntheticHistogram() const;

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

  const Stats& stats() const { return stats_; }
  const dp::ZCdpAccountant& accountant() const { return accountant_; }

  /// The SaveCheckpoint format version (binary since v5; derived-state
  /// since v6).
  static constexpr int kCheckpointVersion = 6;

  /// Serializes the synthesizer state that cannot be derived — options,
  /// consumed budget, the buffered per-user window state of the ORIGINAL
  /// data, and the per-round release targets (the clamped initial census
  /// p^k, then each later round's ones targets p^t_{z1}) — as a binary
  /// checkpoint (stream/state_io.h), so a continual release spanning months
  /// of wall clock can resume in a later process. The synthetic cohort is
  /// post-processing of those targets and is not stored: LoadCheckpoint
  /// rebuilds it. The checkpoint embeds raw input state: protect the file
  /// like the survey data itself (it is not a release). Restoring and
  /// continuing consumes the remaining budget normally; the accountant's
  /// ledger records the restored charge. Refuses a cohort past
  /// theory::MaxSyntheticRecords.
  Status SaveCheckpoint(std::ostream& out) const;

  /// Restores a synthesizer from SaveCheckpoint output, rebuilding the
  /// cohort by re-running stage 2's apply step over the stored targets with
  /// the same keyed streams, so it equals the saved run's cohort record for
  /// record. The worker pool is runtime configuration, not curator state,
  /// so it is NOT persisted: a restored synthesizer runs serially until
  /// set_pool() re-attaches one.
  static Result<std::unique_ptr<FixedWindowSynthesizer>> LoadCheckpoint(
      std::istream& in);

  /// Re-attaches a worker pool (e.g. after LoadCheckpoint). Non-owning;
  /// must outlive the synthesizer. Null reverts to serial. Because all
  /// draws are keyed substreams, the shard grid — this pool's or any
  /// other's — never changes the release log.
  void set_pool(util::ThreadPool* pool) { options_.pool = pool; }

 private:
  explicit FixedWindowSynthesizer(const Options& options, int64_t npad,
                                  double sigma2, double rho_per_step);

  /// Performs the t = k initialization release.
  Status InitialRelease();
  /// Performs one t > k sliding-window release.
  Status SlideRelease();
  /// Stage 2's apply step for round t: seeds the cohort from the census
  /// p^k (t == k) or extends it by the round's ones targets from the keyed
  /// stream cohort_root_.Derive(t), then appends `targets` to
  /// release_targets_. The live round and LoadCheckpoint's rebuild both
  /// run it.
  Status ApplyTargets(int64_t t, const std::vector<int64_t>& targets);

  /// Stage 1: noisy padded histogram of the current true window counts,
  /// one keyed discrete Gaussian per bin (bulk-drawn by the batched
  /// NoiseSampler, sharded across Options::pool). Fills and returns
  /// noisy_scratch_ (persistent, never reallocated).
  std::vector<int64_t>& NoisyPaddedHistogram();

  /// Counts the exact window histogram from the bit-plane ring into
  /// window_hist_ (sharded over word ranges; per-shard histograms reduce
  /// in shard order, so the result is thread-count invariant).
  void CountWindowHistogram();

  Options options_;
  int64_t npad_;
  double sigma2_;
  double rho_per_step_;
  dp::ZCdpAccountant accountant_;
  /// Substream roots; round t uses root.Derive(t), so restored runs
  /// resume the exact remaining draw sequences with no cursors to persist.
  util::SubstreamRng noise_root_;
  util::SubstreamRng rounding_root_;
  util::SubstreamRng cohort_root_;
  /// Batched per-bin histogram noise (same draws as the one-shot sampler).
  dp::NoiseSampler noise_sampler_;

  int64_t n_ = -1;  ///< original population size; fixed by first round
  int64_t t_ = 0;
  /// The buffered original-data window state, bit-sliced: plane j of user
  /// i's window code (the bit from j rounds ago; bit 0 is the newest, per
  /// util::SlideAppend's encoding) is bit i%64 of
  /// window_planes_[(plane_head_ + j) % k][i/64]. Sliding every user's
  /// window is a head rotation plus one packed-round word copy instead of
  /// n per-user shift-and-mask updates, and the window histogram is a
  /// SIMD bit-plane kernel instead of n scattered increments.
  std::vector<std::vector<uint64_t>> window_planes_;
  int plane_head_ = 0;
  std::optional<SyntheticCohort> cohort_;
  Stats stats_;
  // Persistent per-round scratch for the histogram release hot path.
  std::vector<int64_t> noisy_scratch_;  ///< 2^k noisy padded histogram
  std::vector<int64_t> noise_scratch_;  ///< 2^k bulk noise draws
  std::vector<int64_t> ones_target_;    ///< 2^(k-1) stage-2 targets
  /// Every release's stage-2 targets, in round order: the clamped initial
  /// census p^k (2^k counts), then each slide round's ones targets
  /// (2^(k-1) counts). Checkpoints persist these instead of the cohort.
  std::vector<int64_t> release_targets_;
  /// Exact window histogram counted from the bit-plane ring on releasing
  /// rounds; NoisyPaddedHistogram starts from it.
  std::vector<int64_t> window_hist_;
  /// Per-shard window histograms (reduced in shard order) and the byte-
  /// overload packing buffer.
  std::vector<std::vector<int64_t>> shard_hist_;
  data::PackedRound packed_scratch_;
};

}  // namespace core
}  // namespace longdp

#endif  // LONGDP_CORE_FIXED_WINDOW_SYNTHESIZER_H_
