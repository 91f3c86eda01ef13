// The persistent synthetic population of the window synthesizer
// (CategoricalWindowSynthesizer; FixedWindowSynthesizer is its A = 2 front
// end).
//
// A cohort is a set of synthetic records whose symbol histories over an
// alphabet of size A are append-only (the paper's central consistency
// requirement: records persist and are only extended, never rewritten).
// Histories are packed: every round stores b = bit_width(A - 1) bit planes
// in the data::RoundView layout, so at A = 2 a round is exactly one packed
// round of m bits. The cohort indexes records by their current (k-1)-symbol
// window overlap so that stage 2 — "split the records ending in z among the
// children za as the census says" — is O(group size) per overlap.

#ifndef LONGDP_CORE_SYNTHETIC_COHORT_H_
#define LONGDP_CORE_SYNTHETIC_COHORT_H_

#include <cstdint>
#include <vector>

#include "data/longitudinal_dataset.h"
#include "data/round_view.h"
#include "util/flat_groups.h"
#include "util/status.h"
#include "util/substream.h"
#include "util/thread_pool.h"

namespace longdp {
namespace core {

class SyntheticCohort {
 public:
  /// Number of width-k base-A window patterns, A^k. Refuses k < 1, A
  /// outside [2, 256], and windows of more than kMaxPlanes bit planes
  /// (k * bit_width(A - 1), core/limits.h).
  static Result<uint64_t> NumBins(int window_k, int alphabet);

  /// Creates the initial cohort at time t = k from a census over the A^k
  /// window patterns (base-A codes, oldest symbol most significant):
  /// census[s] consecutive records are created with history spelling s.
  /// Counts must be non-negative and sum to at most
  /// stream::state_io::kMaxRecords (record ids are uint32_t); both are
  /// checked before anything is allocated.
  static Result<SyntheticCohort> Create(int window_k, int alphabet,
                                        const std::vector<int64_t>& census);

  int window_k() const { return k_; }
  int alphabet() const { return alphabet_; }
  int64_t num_records() const { return num_records_; }
  /// Rounds of history each record currently carries (>= k).
  int64_t rounds() const { return rounds_; }

  /// Advances one round to `census`, the next window histogram (A^k
  /// counts): the records of overlap group z move to the children za,
  /// census[z * A + a] of them to child a. Every count must be
  /// non-negative and each group's children must sum to its size
  /// (InvalidArgument otherwise, with the cohort unchanged).
  ///
  /// For a = A-1 down to 1, child a takes a uniformly chosen subset of the
  /// group's records not yet assigned, drawn from stream.Leaf(z); child 0
  /// takes the rest. The per-group shuffles are independent and shard over
  /// the overlaps of `pool` (may be null). The regroup that follows is
  /// planned serially as one source and one destination offset per
  /// (group, child) run, then shards over record positions: each shard
  /// copies its part of every run and sets its records' symbol bits into
  /// its own scratch planes, which a word-range pass ORs into the round.
  /// The extended histories and the groups' member order are therefore
  /// bit-identical at any shard or thread count. The caller passes a fresh
  /// per-round stream (e.g. root.Derive(t)).
  Status AdvanceRound(const std::vector<int64_t>& census,
                      const util::SubstreamRng& stream,
                      util::ThreadPool* pool = nullptr);

  /// Current histogram over width-k suffix patterns; result[s] = number of
  /// records whose last k symbols spell s.
  const std::vector<int64_t>& WindowHistogram() const {
    return pattern_count_;
  }

  /// Number of records whose current overlap (last k-1 symbols) is z.
  int64_t GroupSize(uint64_t z) const {
    return groups_.size(static_cast<size_t>(z));
  }

  /// Symbol of record `r` at round `t` (r 0-based, t 1-based; t <=
  /// rounds()).
  int Symbol(int64_t r, int64_t t) const {
    int symbol = 0;
    for (int p = 0; p < symbol_bits_; ++p) symbol |= Plane(t, p).bit(r) << p;
    return symbol;
  }

  /// Bit of record `r` at round `t` of a binary (A = 2) cohort.
  int Bit(int64_t r, int64_t t) const { return Round(t).bit(r); }

  /// Zero-copy packed view of bit `p` of every record's symbol at round t
  /// (1-based, t <= rounds()). Valid until the next AdvanceRound, which
  /// may reallocate the history.
  data::RoundView Plane(int64_t t, int p) const {
    return data::RoundView(
        history_words_.data() +
            (static_cast<size_t>(t - 1) * static_cast<size_t>(symbol_bits_) +
             static_cast<size_t>(p)) *
                words_per_round_,
        num_records_);
  }

  /// Every record's bit at round t of a binary (A = 2) cohort.
  data::RoundView Round(int64_t t) const { return Plane(t, 0); }

  /// Pre-sizes the history storage for `total_rounds` rounds so the
  /// per-round appends of AdvanceRound never reallocate. Optional — the
  /// synthesizer calls it with its horizon at the initial release.
  void ReserveRounds(int64_t total_rounds) {
    if (total_rounds > rounds_) {
      history_words_.reserve(static_cast<size_t>(total_rounds) *
                             static_cast<size_t>(symbol_bits_) *
                             words_per_round_);
    }
  }

  /// Materializes a binary (A = 2) cohort as a LongitudinalDataset of
  /// num_records() users and rounds() rounds (horizon is set to `horizon`,
  /// which must be >= rounds()). The history is already in the dataset's
  /// layout, so this is one word copy per round.
  Result<data::LongitudinalDataset> ToDataset(int64_t horizon) const;

 private:
  SyntheticCohort() = default;

  int k_ = 0;
  int alphabet_ = 0;
  int symbol_bits_ = 0;        ///< b = bit_width(A - 1)
  uint64_t num_overlaps_ = 0;  ///< A^(k-1)
  int64_t num_records_ = 0;
  int64_t rounds_ = 0;
  size_t words_per_round_ = 0;  ///< ceil(num_records_ / 64), per plane
  /// All record histories as packed planes in the data::RoundView layout:
  /// plane p of round t occupies words [((t-1)*b + p)*wpr, ... + wpr),
  /// record r at bit r % 64 of word r / 64, and the bits past num_records_
  /// are zero. Extending the cohort by a round appends b * wpr zero words
  /// and sets the non-zero symbols' bits.
  std::vector<uint64_t> history_words_;
  /// Records grouped by current overlap z, as one flat counting-sorted
  /// array of uint32_t ids. AdvanceRound knows every next-round group size
  /// from the census alone, so the regroup is a count/prefix-sum/claim
  /// plan into groups_next_, a sharded copy, and a swap — no ragged
  /// per-group vectors.
  util::FlatGroups groups_;
  util::FlatGroups groups_next_;        ///< regroup double buffer
  std::vector<int64_t> pattern_count_;  ///< current histogram p_s
  /// Regroup plan scratch: run i = z * A + (A-1-c) of child c of group z
  /// starts at position run_src_[i] of groups_ and lands at run_dst_[i]
  /// of groups_next_; run_src_ ends with a sentinel m.
  std::vector<int64_t> run_src_;
  std::vector<int64_t> run_dst_;
  /// Symbol-bit scratch of regroup shards 1..S-1 (shard 0 writes the
  /// round itself): b planes of words_per_round_ words per shard.
  std::vector<uint64_t> shard_planes_;
};

}  // namespace core
}  // namespace longdp

#endif  // LONGDP_CORE_SYNTHETIC_COHORT_H_
