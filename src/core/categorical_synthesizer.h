// Categorical generalization of Algorithm 1.
//
// The paper notes (Section 1, "Our results") that the fixed-time-window
// solution "naturally extends to handle categorical data with more than 2
// categories". This module implements that extension for an alphabet of
// size A: window patterns are base-A strings of length k (A^k histogram
// bins), and the sliding-window consistency constraint generalizes to
//
//   sum_{a in A} p^t_{z a}  =  sum_{a in A} p^{t-1}_{a z}
//
// for every overlap z in A^{k-1}. The correction term Delta_z spreads the
// discrepancy evenly over the A children with the integer remainder
// assigned to uniformly chosen children (the A = 2 case reduces exactly to
// Algorithm 1's +-1/2 rounding).
//
// It runs on FixedWindowSynthesizer's machinery. Stage 1 bit-slices each
// round into b = bit_width(A - 1) packed planes and keeps every user's
// window as a ring of k rounds of b planes, counted by the same sharded
// plane-histogram kernel and folded from binary codes into the A^k bins.
// Stage 2 draws from the same keyed streams: remainder children from the
// round's rounding stream, record assignment from one cohort stream per
// overlap, sharded across the pool. At A = 2 the synthesizer therefore
// consumes exactly FixedWindowSynthesizer's words and reproduces its
// releases and its cohort record for record.

#ifndef LONGDP_CORE_CATEGORICAL_SYNTHESIZER_H_
#define LONGDP_CORE_CATEGORICAL_SYNTHESIZER_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "dp/accountant.h"
#include "dp/noise_sampler.h"
#include "util/flat_groups.h"
#include "util/status.h"
#include "util/substream.h"

namespace longdp {
namespace util {
class BatchSampler;
class ThreadPool;
}  // namespace util

namespace core {

class CategoricalWindowSynthesizer {
 public:
  struct Options {
    int64_t horizon = 0;   ///< T, in [k, kMaxHorizon] (core/limits.h)
    int window_k = 0;      ///< window width k
    /// A in [2, 256]; the window's k * bit_width(A - 1) bit planes must
    /// fit util::simd::kMaxPlanes (core/limits.h).
    int alphabet = 2;
    double rho = 0.0;      ///< total zCDP budget
    int64_t npad = -1;     ///< -1: auto-size from beta_target
    double beta_target = 0.05;
    /// Root seed for every substream the synthesizer draws from, keyed as
    /// in FixedWindowSynthesizer: per-bin histogram noise (seed,
    /// kHistogramNoise, round, bin, draw), remainder children (seed,
    /// kRounding, round, draw), and record assignment (seed, kCohort,
    /// round, overlap, draw). The release log is a pure function of
    /// (options, input data) at any shard count.
    uint64_t seed = 0;
    /// Optional worker pool for the stage-1 plane histogram, the per-bin
    /// noise draws and the per-overlap assignment shuffles. Non-owning;
    /// must outlive the synthesizer. Null runs serially. Releases are
    /// bit-identical at any shard or thread count: draws are keyed by
    /// substream addresses, and shard histograms reduce in shard order.
    util::ThreadPool* pool = nullptr;
  };

  struct Stats {
    int64_t negative_clamps = 0;
    int64_t remainder_draws = 0;
    int64_t releases = 0;
  };

  static Result<std::unique_ptr<CategoricalWindowSynthesizer>> Create(
      const Options& options);

  /// Consumes round t's symbols (each in [0, A); the population size n is
  /// fixed by the first accepted round). A round with a symbol outside the
  /// alphabet is refused before any state changes. Randomness comes from
  /// the synthesizer's own substreams (Options::seed).
  Status ObserveRound(const std::vector<uint8_t>& symbols);

  bool has_release() const { return initialized_; }
  int64_t t() const { return t_; }
  int64_t npad() const { return npad_; }
  int64_t population() const { return n_; }
  int64_t synthetic_population() const { return num_records_; }
  int window_k() const { return options_.window_k; }
  int alphabet() const { return options_.alphabet; }
  double sigma2() const { return sigma2_; }

  /// Current synthetic histogram over the A^k window patterns (base-A codes,
  /// oldest symbol most significant).
  const std::vector<int64_t>& SyntheticHistogram() const { return counts_; }

  /// Debiased estimate of the fraction of the original population whose
  /// current window equals base-A pattern code `s` (normalized by n, or by
  /// 1 when n = 0, as FixedWindowSynthesizer's padding_spec does).
  Result<double> DebiasedBinFraction(uint64_t s) const;

  /// Symbol of synthetic record `r` at round `tt` (1-based, tt <= t()).
  int Symbol(int64_t r, int64_t tt) const {
    return history_symbols_[static_cast<size_t>(tt - 1) *
                                static_cast<size_t>(num_records_) +
                            static_cast<size_t>(r)];
  }

  const Stats& stats() const { return stats_; }
  const dp::ZCdpAccountant& accountant() const { return accountant_; }

  /// The SaveCheckpoint format version (binary since v2; derived-state
  /// since v3; window bit planes and keyed stage-2 streams since v4).
  static constexpr int kCheckpointVersion = 4;

  /// Serializes the synthesizer state that cannot be derived (options with
  /// the resolved padding, accountant, the k * b window planes, and every
  /// release's census) as a binary checkpoint (stream/state_io.h) ending in
  /// a format-specific sentinel. The synthetic cohort is post-processing of
  /// the censuses and is not stored: LoadCheckpoint rebuilds it. No RNG
  /// cursors are needed: every draw stream is keyed by its round number
  /// (and overlap). Refuses a cohort past theory::MaxSyntheticRecords.
  Status SaveCheckpoint(std::ostream& out) const;

  /// Restores a synthesizer saved by SaveCheckpoint, rebuilding the cohort
  /// by re-running stage 2's assignment over the stored censuses with the
  /// same keyed streams, so it equals the saved run's record for record.
  /// The worker pool is not persisted; the restored synthesizer runs
  /// serially until set_pool() re-attaches one.
  static Result<std::unique_ptr<CategoricalWindowSynthesizer>> LoadCheckpoint(
      std::istream& in);

  /// Re-attaches a worker pool (e.g. after LoadCheckpoint). Non-owning;
  /// must outlive the synthesizer. Null runs serially.
  void set_pool(util::ThreadPool* pool) { options_.pool = pool; }

  /// Number of width-k base-A patterns, A^k. Refuses k < 1, A outside
  /// [2, 256], and windows of more than kMaxPlanes bit planes.
  static Result<uint64_t> NumBins(int window_k, int alphabet);

 private:
  CategoricalWindowSynthesizer(const Options& options, int64_t npad,
                               double sigma2, double rho_per_step);

  Status InitialRelease();
  Status SlideRelease();
  /// Stage 2's apply steps, run by the live release and by
  /// LoadCheckpoint's rebuild. SeedCohort creates census[s] records of
  /// every pattern s, with history capacity for `reserve_rounds` rounds;
  /// AssignRound moves each overlap group's records to the children round
  /// t's census names (a group's children must sum to its size), drawing
  /// from cohort_root_.Derive(t).Leaf(z). Both take the census as the last
  /// A^k entries of release_targets_.
  Status SeedCohort(int64_t reserve_rounds);
  Status AssignRound(int64_t t);
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
  /// Substream roots; round t uses root.Derive(t), so every release's
  /// draws are addressable without any mutable shared stream.
  util::SubstreamRng noise_root_;
  util::SubstreamRng rounding_root_;
  util::SubstreamRng cohort_root_;
  /// Batched per-bin histogram noise (same draws as the one-shot sampler).
  dp::NoiseSampler noise_sampler_;

  uint64_t num_bins_ = 0;      ///< A^k
  uint64_t num_overlaps_ = 0;  ///< A^(k-1)
  int symbol_bits_ = 0;        ///< b = bit_width(A - 1)
  int64_t n_ = -1;
  int64_t t_ = 0;
  bool initialized_ = false;
  int64_t num_records_ = 0;
  /// The original data's windows, bit-sliced as FixedWindowSynthesizer
  /// keeps them: plane p of the symbol from j rounds ago is
  /// window_planes_[((plane_head_ + j) % k) * b + p], n lanes each. A round
  /// rotates the head and slices into the freed slot's b planes.
  std::vector<std::vector<uint64_t>> window_planes_;
  int plane_head_ = 0;
  /// Binary window code (the symbol from j rounds ago in bits [j*b,
  /// (j+1)*b)) -> its base-A bin, or kNoBin when a digit is >= A. Built in
  /// Create; 2^(k*b) entries.
  std::vector<uint32_t> code_bin_;

  // Synthetic cohort state. Records live in one flat column-major symbol
  // matrix (byte per symbol) — round tt's column is [(tt-1)*m, tt*m) for
  // m = num_records_ — so a round append is one zero-filled resize plus
  // writes of the non-zero symbols. At A = 2 record ids, group member
  // order and histories equal SyntheticCohort's.
  std::vector<uint8_t> history_symbols_;
  /// Records grouped by overlap code, as one flat counting-sorted array.
  /// The slide regroup knows every next-round group size from the child
  /// targets alone, so it is a count/prefix-sum/scatter pass into the
  /// double buffer followed by a swap.
  util::FlatGroups groups_;
  util::FlatGroups groups_next_;              ///< regroup double buffer
  std::vector<int64_t> counts_;               ///< current histogram p_s
  /// Every release's census p^t (A^k counts each, round order): the stage-2
  /// targets checkpoints persist instead of the cohort.
  std::vector<int64_t> release_targets_;
  Stats stats_;

  // Persistent per-round scratch (sized once, reused every release) so the
  // pattern-histogram update allocates nothing in steady state.
  std::vector<int64_t> noisy_scratch_;              ///< A^k noisy histogram
  std::vector<int64_t> noise_scratch_;              ///< A^k bulk noise draws
  std::vector<int64_t> targets_;                    ///< per-child targets
  std::vector<size_t> child_order_;                 ///< remainder shuffle
  std::vector<int64_t> plane_hist_;    ///< 2^(k*b) binary-code histogram
  std::vector<int64_t> window_hist_;   ///< A^k exact window histogram
  std::vector<std::vector<int64_t>> shard_hist_;    ///< per-shard histograms
};

}  // namespace core
}  // namespace longdp

#endif  // LONGDP_CORE_CATEGORICAL_SYNTHESIZER_H_
