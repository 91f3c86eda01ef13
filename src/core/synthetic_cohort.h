// The persistent synthetic population maintained by FixedWindowSynthesizer.
//
// A cohort is a set of synthetic records whose bit histories are append-only
// (the paper's central consistency requirement: records persist and are only
// extended, never rewritten). The cohort indexes records by their current
// (k-1)-bit window overlap so that Algorithm 1's stage 2 — "extend p^t_{z1}
// of the records ending in z by 1 and the rest by 0" — is O(group size) per
// overlap.

#ifndef LONGDP_CORE_SYNTHETIC_COHORT_H_
#define LONGDP_CORE_SYNTHETIC_COHORT_H_

#include <cstdint>
#include <vector>

#include "data/longitudinal_dataset.h"
#include "data/round_view.h"
#include "util/bits.h"
#include "util/flat_groups.h"
#include "util/status.h"
#include "util/substream.h"
#include "util/thread_pool.h"

namespace longdp {
namespace core {

class SyntheticCohort {
 public:
  /// Creates the initial cohort at time t = k from a per-pattern census:
  /// `initial_counts[s]` records are created with history equal to the k
  /// bits of pattern s. Counts must be non-negative; size must be 2^k.
  static Result<SyntheticCohort> Create(
      int window_k, const std::vector<int64_t>& initial_counts);

  int window_k() const { return k_; }
  int64_t num_records() const { return num_records_; }
  /// Rounds of history each record currently carries (>= k).
  int64_t rounds() const { return rounds_; }

  /// Advances one round. `ones_target[z]` says how many of the records whose
  /// current overlap is z must be extended by 1 (selected uniformly at
  /// random); the remainder get 0. Requires 0 <= ones_target[z] <=
  /// group size for every z (the synthesizer's consistency solve guarantees
  /// this). Size must be 2^(k-1).
  ///
  /// Overlap z's selection draws from stream.Leaf(z), so the per-group
  /// shuffles are independent and shard across `pool` (may be null) — the
  /// extended histories are bit-identical at any shard or thread count.
  /// The caller passes a fresh per-round stream (e.g. root.Derive(t)).
  Status AdvanceRound(const std::vector<int64_t>& ones_target,
                      const util::SubstreamRng& stream,
                      util::ThreadPool* pool = nullptr);

  /// Current histogram over width-k suffix patterns; result[s] = number of
  /// records whose last k bits equal s. O(2^k).
  std::vector<int64_t> WindowHistogram() const;

  /// Number of records whose current overlap (last k-1 bits) equals z.
  int64_t GroupSize(util::Pattern z) const {
    return groups_.size(static_cast<size_t>(z));
  }

  /// Bit of record `r` at round `t` (r 0-based, t 1-based; t <= rounds()).
  int Bit(int64_t r, int64_t t) const { return Round(t).bit(r); }

  /// Zero-copy packed view of every record's bit at round t (1-based,
  /// t <= rounds()). Valid until the next AdvanceRound, which may
  /// reallocate the history.
  data::RoundView Round(int64_t t) const {
    return data::RoundView(
        history_words_.data() + static_cast<size_t>(t - 1) * words_per_round_,
        num_records_);
  }

  /// Pre-sizes the history storage for `total_rounds` rounds so the
  /// per-round appends of AdvanceRound never reallocate. Optional — the
  /// synthesizer calls it with its horizon at the initial release.
  void ReserveRounds(int64_t total_rounds) {
    if (total_rounds > rounds_) {
      history_words_.reserve(static_cast<size_t>(total_rounds) *
                             words_per_round_);
    }
  }

  /// Materializes the cohort as a LongitudinalDataset of num_records()
  /// users and rounds() rounds (horizon is set to `horizon`, which must be
  /// >= rounds()). The history is already in the dataset's layout, so this
  /// is one word copy per round.
  Result<data::LongitudinalDataset> ToDataset(int64_t horizon) const;

 private:
  SyntheticCohort() = default;

  int k_ = 0;
  int64_t num_records_ = 0;
  int64_t rounds_ = 0;
  size_t words_per_round_ = 0;  ///< ceil(num_records_ / 64)
  /// All record histories as packed rounds in the data::RoundView layout:
  /// round t occupies words [(t-1)*wpr, t*wpr), record r at bit r % 64 of
  /// word r / 64, and the bits past num_records_ are zero. Extending the
  /// cohort by a round appends wpr zero words and sets the 1-extensions'
  /// bits — m/8 bytes per round, no per-record vector churn.
  std::vector<uint64_t> history_words_;
  /// Records grouped by current overlap z, as one flat counting-sorted
  /// array. AdvanceRound knows every next-round group size from the
  /// targets alone, so the regroup is a count/prefix-sum/scatter pass into
  /// groups_next_ followed by a swap — no ragged per-group vectors.
  util::FlatGroups groups_;
  util::FlatGroups groups_next_;                      // double buffer
  std::vector<int64_t> pattern_count_;                // current histogram p_s
  // Persistent AdvanceRound scratch (overwritten, never reallocated).
  std::vector<int64_t> count_scratch_;
};

}  // namespace core
}  // namespace longdp

#endif  // LONGDP_CORE_SYNTHETIC_COHORT_H_
