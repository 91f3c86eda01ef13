// Algorithm 2 of the paper: continual private synthetic data preserving
// cumulative time queries (Hamming-weight thresholds).
//
// Stage 1 (stream/CounterBank): T stream counters — one per threshold b —
// consume the increment streams z^t_b and release monotonized threshold
// counts Shat^t_b with Shat^{t-1}_b <= Shat^t_b <= Shat^{t-1}_{b-1}.
//
// Stage 2 (here): the synthetic cohort of m = n records is updated so that
// exactly Shat^t_b records have Hamming weight >= b at every time t: for b
// descending, zhat^t_b = Shat^t_b - Shat^{t-1}_b randomly chosen records of
// weight b-1 are extended by a 1; everyone else gets a 0. Monotonization
// guarantees zhat^t_b >= 0 and never exceeds the weight-(b-1) group size, so
// the update is always feasible (Section 4.1).

#ifndef LONGDP_CORE_CUMULATIVE_SYNTHESIZER_H_
#define LONGDP_CORE_CUMULATIVE_SYNTHESIZER_H_

#include <bit>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "data/longitudinal_dataset.h"
#include "data/round_view.h"
#include "dp/accountant.h"
#include "stream/counter_bank.h"
#include "util/status.h"
#include "util/substream.h"

namespace longdp {
namespace util {
class ThreadPool;
}  // namespace util

namespace core {

class CumulativeSynthesizer {
 public:
  struct Options {
    int64_t horizon = 0;  ///< T, in [1, kMaxHorizon] (core/limits.h)
    double rho = 0.0;     ///< total zCDP budget (+infinity = zero-noise)
    stream::BudgetSplit split = stream::BudgetSplit::kCubicLogLevels;
    /// Stream counter implementation; tree counter when null.
    std::shared_ptr<const stream::StreamCounterFactory> counter_factory;
    /// Root seed for every substream the synthesizer draws from: counter
    /// noise is keyed (seed, kCounterNoise, b, level, draw) and stage-2
    /// selection (seed, kSelection, round, draw). The full release log is
    /// a pure function of (options, input data) — including this seed —
    /// at any shard or thread count.
    uint64_t seed = 0;
    /// Optional worker pool for the sharded stage-1 work (true-weight
    /// updates, increment-histogram accumulation) and the bank's parallel
    /// counter advance. Non-owning; must outlive the synthesizer. Null
    /// runs serially. The released output is bit-identical at any shard or
    /// thread count: draws are keyed by substream addresses, and the
    /// sharded histograms reduce in shard order. Not serialized by
    /// checkpoints (a restored synthesizer runs serially unless re-given a
    /// pool).
    util::ThreadPool* pool = nullptr;
  };

  static Result<std::unique_ptr<CumulativeSynthesizer>> Create(
      const Options& options);

  /// Consumes round t's original-data bits; population size n is fixed by
  /// the first call. Every round produces a release. Randomness comes from
  /// the synthesizer's own substreams (Options::seed).
  Status ObserveRound(data::RoundView round);

  /// Byte-per-bit convenience overload: validates and bit-packs `bits`
  /// (rejecting entries other than 0/1 before any state changes), then
  /// runs the packed path above.
  Status ObserveRound(const std::vector<uint8_t>& bits);

  int64_t t() const { return t_; }
  int64_t horizon() const { return options_.horizon; }
  int64_t population() const { return n_; }

  /// The released (monotonized) threshold counts Shat^t_b, indexed b = 0..T,
  /// from the most recent round.
  const std::vector<int64_t>& released_thresholds() const {
    return released_;
  }

  /// Raw pre-monotonization counter outputs from the most recent round
  /// (exposed for the Lemma 4.2 experiments).
  const std::vector<int64_t>& raw_thresholds() const;

  /// The cumulative query answer c^t_b on the synthetic data:
  /// Shat^t_b / n. Requires at least one round and 0 <= b <= T.
  Result<double> Answer(int64_t b) const;

  /// Threshold counts recomputed from the materialized synthetic records;
  /// tests assert this equals released_thresholds() exactly (invariant 4).
  std::vector<int64_t> SyntheticThresholdCounts() const;

  /// Bit of synthetic record `r` at round `tt` (r 0-based, tt 1-based;
  /// tt <= t()).
  int Bit(int64_t r, int64_t tt) const { return Round(tt).bit(r); }

  /// Zero-copy packed view of every synthetic record's bit at round tt
  /// (1-based, tt <= t()). Valid until the next round, which may
  /// reallocate the history.
  data::RoundView Round(int64_t tt) const {
    return data::RoundView(
        history_words_.data() + static_cast<size_t>(tt - 1) * words_per_round_,
        n_);
  }

  /// Materializes the synthetic records as a dataset (n users, t() rounds),
  /// one word copy per round.
  Result<data::LongitudinalDataset> ToDataset() const;

  const dp::ZCdpAccountant& accountant() const { return accountant_; }

  /// The SaveCheckpoint format version (binary since v5; derived-state
  /// since v6; counter-bank input instead of counter state since v7).
  static constexpr int kCheckpointVersion = 7;

  /// Serializes the synthesizer state that cannot be derived — options,
  /// the original data's true weight planes, and the counter bank's input
  /// z^tau of every round — as a binary checkpoint (stream/state_io.h), so
  /// a release spanning months of wall clock can resume in a later
  /// process. The counters, the released rows and the synthetic records
  /// are all functions of those increments and are not stored:
  /// LoadCheckpoint rebuilds them. Checkpoints are curator state, not
  /// releases: protect them like the input data.
  Status SaveCheckpoint(std::ostream& out) const;

  /// Restores a synthesizer from SaveCheckpoint output by replaying every
  /// stored round's increments through ReleaseRound, the live round's own
  /// bank advance and promotions, with the same keyed streams: counters,
  /// released rows and synthetic records equal the saved run's. The
  /// increments are validated against the weight planes first. The worker pool is runtime configuration, not
  /// curator state, so it is NOT persisted: a restored synthesizer runs
  /// serially until set_pool() re-attaches one.
  static Result<std::unique_ptr<CumulativeSynthesizer>> LoadCheckpoint(
      std::istream& in);

  /// Re-attaches a worker pool (e.g. after LoadCheckpoint). Non-owning;
  /// must outlive the synthesizer. Null reverts to serial. Because all
  /// draws are keyed substreams, the shard grid — this pool's or any
  /// other's — never changes the release log.
  void set_pool(util::ThreadPool* pool);

 private:
  explicit CumulativeSynthesizer(const Options& options)
      : options_(options),
        accountant_(options.rho),
        selection_root_(options.seed, util::substream::kSelection) {}

  /// bit_width(T): the planes that hold every true prefix weight (<= T).
  int NumWeightPlanes() const {
    return std::bit_width(static_cast<uint64_t>(options_.horizon));
  }

  /// Sizes every per-population structure and creates the counter bank.
  /// The synthetic history is pre-sized for `reserve_rounds` rounds.
  Status InitializeForPopulation(int64_t n, int64_t reserve_rounds);

  /// Releases round t_ + 1 from its increments z^t_b (b = 1..T): the
  /// counter bank's advance to Shat^t, then stage 2, which for b descending
  /// promotes Shat^t_b - Shat^{t-1}_b uniformly chosen records of weight
  /// b-1 (from the keyed stream selection_root_.Derive(t)). The live round
  /// and LoadCheckpoint's replay both run it.
  Status ReleaseRound(std::span<const int64_t> z);

  Options options_;
  dp::ZCdpAccountant accountant_;
  /// Root of the stage-2 selection substreams; round t draws from
  /// selection_root_.Derive(t), so a restored synthesizer resumes the
  /// exact remaining selection sequence with no cursor to persist.
  util::SubstreamRng selection_root_;
  std::unique_ptr<stream::CounterBank> bank_;

  int64_t n_ = -1;
  int64_t t_ = 0;
  size_t words_per_round_ = 0;  ///< ceil(n / 64)
  /// True prefix weights, bit-sliced: bit j of record i's weight is bit
  /// i%64 of weight_planes_[j][i/64]. Stage 1's weight histogram is then a
  /// masked SIMD bit-plane count and the weight increments are one
  /// bit-sliced ripple-carry add over the round's packed words, instead of
  /// two scattered per-set-bit updates. There are NumWeightPlanes()
  /// planes.
  std::vector<std::vector<uint64_t>> weight_planes_;
  std::vector<int64_t> plane_hist_;  ///< 2^NumWeightPlanes() scratch
  /// Synthetic records as packed rounds in the data::RoundView layout:
  /// round tt occupies words [(tt-1)*wpr, tt*wpr), record r at bit r % 64
  /// of word r / 64, and the bits past n are zero. A round extension
  /// appends wpr zero words (n/8 bytes) and sets the promoted records'
  /// bits.
  std::vector<uint64_t> history_words_;
  /// Record ids (uint32_t: n is capped at stream::state_io::kMaxRecords)
  /// by current synthetic weight. Promotions consume a group's prefix;
  /// group_head_[b] marks how much of weight_groups_[b] is spent, so
  /// per-round maintenance is O(promotions) with amortized compaction
  /// instead of an O(group) erase-from-front every round. The live members
  /// of group b are weight_groups_[b][group_head_[b]..].
  std::vector<std::vector<uint32_t>> weight_groups_;
  std::vector<size_t> group_head_;
  std::vector<int64_t> released_;  ///< Shat^t (b = 0..T)
  /// z^1, ..., z^t back to back (T counts each, b = 1..T): the bank's
  /// input, which checkpoints persist instead of any state derived from it.
  std::vector<int64_t> z_rows_;
  /// Per-shard stage-1 weight histograms (reduced into plane_hist_ in
  /// shard order) and the byte-overload packing buffer; both persistent
  /// scratch.
  std::vector<std::vector<int64_t>> shard_z_;
  data::PackedRound packed_scratch_;
};

}  // namespace core
}  // namespace longdp

#endif  // LONGDP_CORE_CUMULATIVE_SYNTHESIZER_H_
