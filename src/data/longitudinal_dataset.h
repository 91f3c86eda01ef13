// The longitudinal data model of Section 2.1: n individuals, each reporting
// one bit per period t = 1..T. Rounds are stored column-major as bit-packed
// uint64_t words (64 users per word) because both synthesizers consume the
// data one round at a time: Round(t) is a zero-copy RoundView whose
// word-level iteration and popcount counting replace the old byte-per-bit
// column scans. The packed words are the only per-user state: the
// cumulative-query statistics of Algorithm 2 (CumulativeCounts,
// WeightIncrements) are computed on demand by adding rounds into
// bit-sliced weight planes (util::simd::PlaneAdd) and counting them with
// one util::simd::PlaneHistogram, O(t * n / 64 * log T) word operations.
//
// The same container is used for original data and for materialized
// synthetic data (the synthetic population size m may differ from n).

#ifndef LONGDP_DATA_LONGITUDINAL_DATASET_H_
#define LONGDP_DATA_LONGITUDINAL_DATASET_H_

#include <array>
#include <cstdint>
#include <vector>

#include "data/round_view.h"
#include "util/bits.h"
#include "util/status.h"

namespace longdp {
namespace data {

class LongitudinalDataset {
 public:
  /// An empty dataset over `num_users` individuals and a horizon of at most
  /// `horizon` rounds, 1 <= horizon <= util::simd::kMaxHorizon. Rounds are
  /// appended via AppendRound; the word storage for all of them is
  /// reserved up front.
  static Result<LongitudinalDataset> Create(int64_t num_users,
                                            int64_t horizon);

  int64_t num_users() const { return num_users_; }
  int64_t horizon() const { return horizon_; }
  /// Rounds appended so far (the current time t).
  int64_t rounds() const { return rounds_; }

  /// Appends round t+1. `bits` must have one 0/1 entry per user; any other
  /// entry is InvalidArgument, with the dataset left unchanged.
  Status AppendRound(const std::vector<uint8_t>& bits);

  /// Appends round t+1 as a copy of the view's words. A RoundView is
  /// 0/1-clean with zero tail bits by construction, so only its size is
  /// checked; the view must not alias this dataset's own rounds.
  Status AppendPackedRound(RoundView round);

  /// Bit of `user` at round `t` (1-based, t <= rounds()).
  int Bit(int64_t user, int64_t t) const {
    return static_cast<int>(
        (words_[(static_cast<size_t>(t) - 1) * words_per_round_ +
                static_cast<size_t>(user >> 6)] >>
         (user & 63)) &
        1);
  }

  /// The user's most recent k bits at time t, encoded oldest-bit-first
  /// (util::Pattern convention). Bits before t = 1 are taken as 0, matching
  /// the paper's convention x^t = 0 for t <= 0.
  util::Pattern SuffixPattern(int64_t user, int64_t t, int k) const;

  /// Histogram over {0,1}^k of users' length-k suffixes at time t:
  /// result[s] = #{ i : (x^{t-k+1}_i, ..., x^t_i) = s }. Requires t >= k.
  Result<std::vector<int64_t>> WindowHistogram(int64_t t, int k) const;

  /// Cumulative threshold counts S^t_b = #{ i : weight_i(t) >= b } for
  /// b = 0..horizon (so the result has horizon+1 entries; entry 0 is n),
  /// where weight_i(t) is user i's prefix Hamming weight through round t.
  /// Requires 1 <= t <= rounds().
  Result<std::vector<int64_t>> CumulativeCounts(int64_t t) const;

  /// The Algorithm-2 increments for round t:
  /// result[b-1] = z^t_b = #{ i : weight_i(t-1) = b-1 and x^t_i = 1 },
  /// for b = 1..horizon. Requires 1 <= t <= rounds().
  Result<std::vector<int64_t>> WeightIncrements(int64_t t) const;

  /// Zero-copy packed view of the bits reported at round t (1-based). The
  /// view is valid until the next AppendRound call (appending may
  /// reallocate the packed storage); re-fetch it after appending.
  RoundView Round(int64_t t) const {
    return RoundView(
        words_.data() + (static_cast<size_t>(t) - 1) * words_per_round_,
        num_users_);
  }

  /// Invokes fn(user, SuffixPattern(user, t, k)) for every user in
  /// increasing order, extracting each 64-user block's patterns from k
  /// round words instead of k per-user Bit() loads. Requires
  /// 1 <= t <= rounds() and k >= 1 (bits before t = 1 read as 0).
  template <typename Fn>
  void ForEachSuffixPattern(int64_t t, int k, Fn&& fn) const {
    for (size_t blk = 0; blk < words_per_round_; ++blk) {
      const int64_t base = static_cast<int64_t>(blk) << 6;
      const int count =
          static_cast<int>(num_users_ - base < 64 ? num_users_ - base : 64);
      std::array<util::Pattern, 64> pat{};
      for (int64_t tt = t - k + 1; tt <= t; ++tt) {
        // Rounds before t = 1 contribute 0 bits; the patterns are still 0
        // until the first real round, so the shift-in of a zero is a no-op
        // and the round can be skipped outright.
        if (tt < 1) continue;
        const uint64_t w =
            words_[(static_cast<size_t>(tt) - 1) * words_per_round_ + blk];
        for (int j = 0; j < count; ++j) {
          pat[static_cast<size_t>(j)] =
              (pat[static_cast<size_t>(j)] << 1) | ((w >> j) & 1);
        }
      }
      for (int j = 0; j < count; ++j) {
        fn(base + j, pat[static_cast<size_t>(j)]);
      }
    }
  }

 private:
  LongitudinalDataset(int64_t num_users, int64_t horizon)
      : num_users_(num_users),
        horizon_(horizon),
        words_per_round_(static_cast<size_t>((num_users + 63) >> 6)) {}

  /// OutOfRange once all horizon rounds are held; InvalidArgument unless a
  /// round of `size` entries has one per user.
  Status CheckNextRound(int64_t size) const;

  /// Exact-weight histogram of rounds 1..t: result[w] counts the users
  /// whose prefix weight through t equals w (2^bit_width(t) entries, at
  /// least 2). With a non-null `mask` (one round's words) only the users
  /// whose mask bit is set count.
  std::vector<int64_t> WeightHistogram(int64_t t, const uint64_t* mask) const;

  int64_t num_users_;
  int64_t horizon_;
  size_t words_per_round_;
  int64_t rounds_ = 0;
  /// Bit-packed rounds, one words_per_round_ stretch per round: bit of
  /// `user` at round t is words_[(t-1)*wpr + user/64] >> (user%64) & 1.
  std::vector<uint64_t> words_;
};

}  // namespace data
}  // namespace longdp

#endif  // LONGDP_DATA_LONGITUDINAL_DATASET_H_
