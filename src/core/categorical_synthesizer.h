// The window synthesizer: Algorithm 1 of the paper over an alphabet of size
// A. FixedWindowSynthesizer is its A = 2 front end.
//
// The paper notes (Section 1, "Our results") that the fixed-time-window
// solution "naturally extends to handle categorical data with more than 2
// categories". Window patterns are base-A strings of length k (A^k
// histogram bins), and the sliding-window consistency constraint is
//
//   sum_{a in A} p^t_{z a}  =  sum_{a in A} p^{t-1}_{a z}
//
// for every overlap z in A^{k-1}. Per round t = k..T the synthesizer
//   (stage 1) releases a padded noisy histogram of the original data's
//             width-k window:  Chat^t_s = C^t_s + n_pad + N_Z(0, sigma^2),
//             sigma^2 = (T-k+1)/(2 rho); and
//   (stage 2) solves the consistency constraints: the correction term
//             Delta_z spreads each overlap's discrepancy evenly over its A
//             children, with the integer remainder assigned to uniformly
//             chosen children (at A = 2, Algorithm 1's +-1/2 rounding),
//             then extends the persistent synthetic cohort by that census.
//
// The entire run is rho-zCDP (Theorem 3.1): each of the T-k+1 histogram
// releases is charged rho/(T-k+1) against an internal accountant. Negative
// targets — which the n_pad padding makes improbable (Theorem 3.2) but not
// impossible — are clamped (preserving the consistency sums) and counted
// in stats(); experiments report that count as the algorithm's empirical
// failure indicator.
//
// Stage 1 bit-slices each round into b = bit_width(A - 1) packed planes and
// keeps every user's window as a ring of k rounds of b planes, counted by
// the sharded plane-histogram kernel and folded from binary codes into the
// A^k bins. At A = 2 a round is one packed data::RoundView, copied into
// the ring as it is.

#ifndef LONGDP_CORE_CATEGORICAL_SYNTHESIZER_H_
#define LONGDP_CORE_CATEGORICAL_SYNTHESIZER_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "core/synthetic_cohort.h"
#include "data/round_view.h"
#include "dp/accountant.h"
#include "dp/noise_sampler.h"
#include "util/status.h"
#include "util/substream.h"

namespace longdp {
namespace util {
class ThreadPool;
}  // namespace util

namespace core {

/// The options every window synthesizer takes; the categorical one adds
/// the alphabet.
struct WindowOptions {
  /// T, known in advance as in the paper's model; in [k, kMaxHorizon].
  int64_t horizon = 0;
  int window_k = 0;  ///< window width k
  double rho = 0.0;  ///< total zCDP budget (+infinity = zero-noise path)
  /// Padding per bin; -1 selects theory::RecommendedNpad(beta_target).
  int64_t npad = -1;
  /// Target failure probability used to auto-size npad.
  double beta_target = 0.05;
  /// Root seed for every substream the synthesizer draws from: per-bin
  /// histogram noise is keyed (seed, kHistogramNoise, round, bin, draw),
  /// remainder children (seed, kRounding, round, draw), and record
  /// assignment (seed, kCohort, round, overlap, draw). The full release
  /// log is a pure function of (options, input data) at any shard or
  /// thread count.
  uint64_t seed = 0;
  /// Optional worker pool for the stage-1 plane histogram, the per-bin
  /// noise draws and the per-overlap assignment shuffles. Non-owning; must
  /// outlive the synthesizer. Null runs serially. Releases are
  /// bit-identical at any shard or thread count: draws are keyed by
  /// substream addresses, and shard histograms reduce in shard order. Not
  /// serialized by checkpoints.
  util::ThreadPool* pool = nullptr;
};

class CategoricalWindowSynthesizer {
 public:
  struct Options : WindowOptions {
    /// A in [2, 256]; the window's k * bit_width(A - 1) bit planes must
    /// fit kMaxPlanes (core/limits.h).
    int alphabet = 2;
  };

  struct Stats {
    /// Children clamped because their target went negative.
    int64_t negative_clamps = 0;
    /// Overlaps whose discrepancy left a remainder to assign at random
    /// (at A = 2, the half-integer roundings b_z).
    int64_t rounding_draws = 0;
    /// Histogram releases performed so far (update steps).
    int64_t releases = 0;
  };

  static Result<std::unique_ptr<CategoricalWindowSynthesizer>> Create(
      const Options& options);

  /// Consumes round t's symbols (each in [0, A); the population size n is
  /// fixed by the first accepted round). A round with a symbol outside the
  /// alphabet is refused before any state changes. Before t = k the data
  /// is only buffered; from t = k onward each call performs one release +
  /// cohort update.
  Status ObserveRound(const std::vector<uint8_t>& symbols);

  /// The packed form of ObserveRound for A = 2 (FailedPrecondition at any
  /// other alphabet): the round's words become the ring's newest plane.
  Status ObserveRound(data::RoundView round);

  /// True once the initial synthetic dataset exists (t >= k).
  bool has_release() const { return cohort_.has_value(); }
  int64_t t() const { return t_; }
  int64_t horizon() const { return options_.horizon; }
  int64_t npad() const { return npad_; }
  int64_t population() const { return n_; }
  int window_k() const { return options_.window_k; }
  int alphabet() const { return options_.alphabet; }
  double sigma2() const { return sigma2_; }

  /// The persistent synthetic cohort (valid once has_release()).
  const SyntheticCohort& cohort() const { return *cohort_; }

  /// Current synthetic histogram over the A^k window patterns (base-A codes,
  /// oldest symbol most significant); all zeros before the first release.
  const std::vector<int64_t>& SyntheticHistogram() const {
    return cohort_.has_value() ? cohort_->WindowHistogram() : no_release_;
  }

  /// Debiased estimate of the fraction of the original population whose
  /// current window equals base-A pattern code `s` (normalized by n, or by
  /// 1 when n = 0, as FixedWindowSynthesizer's padding_spec does).
  Result<double> DebiasedBinFraction(uint64_t s) const;

  const Stats& stats() const { return stats_; }
  const dp::ZCdpAccountant& accountant() const { return accountant_; }

  /// The SaveCheckpoint format version (binary since v2; derived-state
  /// since v3; window bit planes and keyed stage-2 streams since v4).
  static constexpr int kCheckpointVersion = 4;

  /// Serializes the synthesizer state that cannot be derived (options with
  /// the resolved padding, accountant, the k * b window planes of the
  /// ORIGINAL data, and every release's census) as a binary checkpoint
  /// (stream/state_io.h) ending in a format-specific sentinel. The
  /// synthetic cohort is post-processing of the censuses and is not
  /// stored: LoadCheckpoint rebuilds it. No RNG cursors are needed: every
  /// draw stream is keyed by its round number (and overlap). The
  /// checkpoint embeds raw input state: protect the file like the survey
  /// data itself (it is not a release). Refuses a cohort past
  /// theory::MaxSyntheticRecords.
  Status SaveCheckpoint(std::ostream& out) const;

  /// Restores a synthesizer saved by SaveCheckpoint, rebuilding the cohort
  /// by re-running stage 2's assignment over the stored censuses with the
  /// same keyed streams, so it equals the saved run's record for record.
  /// Restoring and continuing consumes the remaining budget normally; the
  /// accountant's ledger records the restored charge. The worker pool is
  /// not persisted; the restored synthesizer runs serially until
  /// set_pool() re-attaches one.
  static Result<std::unique_ptr<CategoricalWindowSynthesizer>> LoadCheckpoint(
      std::istream& in);

  /// Re-attaches a worker pool (e.g. after LoadCheckpoint). Non-owning;
  /// must outlive the synthesizer. Null runs serially.
  void set_pool(util::ThreadPool* pool) { options_.pool = pool; }

 private:
  friend class FixedWindowSynthesizer;

  /// A checkpoint family: its magic line, its end tag, and whether it
  /// stores the binary alphabet only (FixedWindowSynthesizer's).
  struct Codec {
    const char* family;
    int version;
    uint64_t end_tag;
    bool binary;
  };
  static const Codec kCodec;  ///< "categorical", kCheckpointVersion

  CategoricalWindowSynthesizer(const Options& options, int64_t npad,
                               double sigma2, double rho_per_step);

  Status Save(std::ostream& out, const Codec& codec) const;
  static Result<std::unique_ptr<CategoricalWindowSynthesizer>> Load(
      std::istream& in, const Codec& codec);

  /// InvalidArgument/OutOfRange unless a round of n users may be observed
  /// now; changes nothing.
  Status CheckRound(int64_t n) const;
  /// Fixes the population on the first round and rotates the ring head:
  /// the slot holding the expiring oldest round becomes the newest.
  void RotateRing(int64_t n);
  /// Counts the filled ring and performs round t's release (none before
  /// t = k).
  Status Release();
  /// Performs one t > k sliding-window release: the consistency solve
  /// turns the noisy histogram into round t's census.
  Status SlideRelease();
  /// Stage 2's apply step for round t, run by the live release and by
  /// LoadCheckpoint's rebuild: seeds the cohort from the census at t = k
  /// or advances it by the census with the keyed stream
  /// cohort_root_.Derive(t), then appends the census to release_targets_.
  Status ApplyCensus(int64_t t, const std::vector<int64_t>& census);
  /// Counts the binary window codes of the plane ring into plane_hist_.
  void CountPlaneHistogram();
  /// Fills and returns noisy_scratch_ (persistent, never reallocated);
  /// one keyed discrete Gaussian per bin, sharded across Options::pool.
  std::vector<int64_t>& NoisyPaddedHistogram();

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

  uint64_t num_bins_ = 0;      ///< A^k
  uint64_t num_overlaps_ = 0;  ///< A^(k-1)
  int symbol_bits_ = 0;        ///< b = bit_width(A - 1)
  int64_t n_ = -1;  ///< original population size; fixed by first round
  int64_t t_ = 0;
  /// The original data's windows, bit-sliced: plane p of the symbol from j
  /// rounds ago is window_planes_[((plane_head_ + j) % k) * b + p], n lanes
  /// each (bit 0 of a binary window code is the newest round, per
  /// util::SlideAppend's encoding). Sliding every user's window is a head
  /// rotation plus the round's b planes instead of n per-user updates, and
  /// the window histogram is a SIMD bit-plane kernel.
  std::vector<std::vector<uint64_t>> window_planes_;
  int plane_head_ = 0;
  /// Binary window code (the symbol from j rounds ago in bits [j*b,
  /// (j+1)*b)) -> its base-A bin, or kNoBin when a digit is >= A. Built in
  /// Create; 2^(k*b) entries.
  std::vector<uint32_t> code_bin_;

  std::optional<SyntheticCohort> cohort_;
  /// Every release's census p^t (A^k counts each, round order): the stage-2
  /// targets checkpoints persist instead of the cohort.
  std::vector<int64_t> release_targets_;
  Stats stats_;
  std::vector<int64_t> no_release_;  ///< A^k zeros, pre-release histogram

  // Persistent per-round scratch (sized once, reused every release) so the
  // pattern-histogram update allocates nothing in steady state.
  std::vector<int64_t> noisy_scratch_;  ///< A^k noisy histogram
  std::vector<int64_t> noise_scratch_;  ///< A^k bulk noise draws
  std::vector<int64_t> census_;         ///< A^k stage-2 census
  std::vector<int64_t> targets_;        ///< per-child targets
  std::vector<size_t> child_order_;     ///< remainder shuffle
  std::vector<int64_t> plane_hist_;     ///< 2^(k*b) binary-code histogram
  std::vector<int64_t> window_hist_;    ///< A^k exact window histogram
  std::vector<std::vector<int64_t>> shard_hist_;  ///< per-shard histograms
};

}  // namespace core
}  // namespace longdp

#endif  // LONGDP_CORE_CATEGORICAL_SYNTHESIZER_H_
