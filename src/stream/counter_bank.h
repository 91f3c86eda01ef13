// Stage 1 of the paper's Algorithm 2: a bank of T stream counters (one per
// Hamming-weight threshold b = 1..T) plus the cross-counter monotonization
// of Section 4.1 / Lemma 4.2.
//
// Counter b tracks S^t_b = #{ users whose first t bits contain >= b ones }
// via the increment stream z^t_b (users reaching weight b exactly at time
// t). Counter b's stream effectively starts at t = b and has length
// T - b + 1, which the Corollary B.1 budget split exploits.
//
// Randomness: counter b draws from the substream family
// SubstreamRng(seed, kCounterNoise).Derive(b) — every counter's noise is
// addressed, not sequenced, so the bank can advance its counters in
// parallel across ThreadPool shards (Options::pool) and release exactly
// the same rows as the serial walk, bit for bit. It also makes the bank's
// whole state a function of its options and the rows z^1..z^t it has
// observed, so the bank has no serialized form: a checkpoint stores those
// rows, and a restore feeds them to a fresh bank.
//
// Monotonization (computed here, releasing both raw and clamped rows):
//
//   Shat^t_b = min( max( Stilde^t_b, Shat^{t-1}_b ), Shat^{t-1}_{b-1} ),
//
// with boundary rows Shat^t_0 = n (every user trivially has >= 0 ones) and
// Shat^0_b = 0 for b >= 1. The clamp guarantees, for every t:
//   (a) Shat^t_b >= Shat^{t-1}_b        (weights only grow), and
//   (b) Shat^t_b <= Shat^{t-1}_{b-1}    (weights grow by at most 1/step),
// which is exactly what makes consistent synthetic data exist in stage 2.

#ifndef LONGDP_STREAM_COUNTER_BANK_H_
#define LONGDP_STREAM_COUNTER_BANK_H_

#include <memory>
#include <span>
#include <vector>

#include "dp/accountant.h"
#include "stream/budget_split.h"
#include "stream/stream_counter.h"
#include "util/thread_pool.h"

namespace longdp {
namespace stream {

class TreeCounter;

class CounterBank {
 public:
  struct Options {
    int64_t horizon = 0;     ///< T, number of reporting periods
    int64_t population = 0;  ///< n, number of (synthetic) individuals
    double total_rho = 0.0;  ///< zCDP budget across all counters
    BudgetSplit split = BudgetSplit::kCubicLogLevels;
    /// Counter implementation; defaults to the tree counter when null.
    std::shared_ptr<const StreamCounterFactory> factory;
    /// Root seed for the bank's noise substreams: counter b draws from
    /// SubstreamRng(seed, substream::kCounterNoise).Derive(b).
    uint64_t seed = 0;
    /// Optional pool for advancing counters in parallel (not owned, may be
    /// null). Results are bit-identical with or without it — counters
    /// carry keyed substreams, so no draw order exists to perturb.
    util::ThreadPool* pool = nullptr;
  };

  /// Validates options, splits the budget, creates the T counters, and (if
  /// an accountant is supplied) charges each counter's share.
  static Result<std::unique_ptr<CounterBank>> Create(
      const Options& options, dp::ZCdpAccountant* accountant = nullptr);

  /// Consumes round t's increments: z[b-1] = z^t_b for b = 1..T (entries for
  /// b > t must be 0). Advances every active counter in one pass (sharded
  /// across Options::pool when set) and monotonizes into the bank-owned
  /// rows, read back via monotone_row() (Shat^t, indexed b = 0..T with
  /// entry 0 fixed at n) and raw_row(); they are valid until the next
  /// call. Counters built by the default tree factory advance through
  /// TreeCounter::Step with their noise scales precomputed at Create — no
  /// per-counter virtual dispatch; other implementations fall back to the
  /// virtual Observe. Every counter's noise is keyed by
  /// (seed, b, level, draw-index), so serial and sharded advances release
  /// identical rows.
  Status ObserveRound(std::span<const int64_t> z);

  /// Raw (pre-monotonization) row Stilde^t from the last ObserveRound,
  /// indexed b = 0..T. Used by tests of Lemma 4.2.
  const std::vector<int64_t>& raw_row() const { return raw_; }

  /// Monotonized row Shat^t from the last ObserveRound, indexed b = 0..T.
  const std::vector<int64_t>& monotone_row() const { return monotone_; }

  int64_t steps() const { return t_; }
  int64_t horizon() const { return horizon_; }
  const std::vector<double>& budget_shares() const { return shares_; }

  /// High-probability error bound of counter b at its step count when the
  /// global time is t (paper Appendix B form). beta is per-(b, t).
  double CounterErrorBound(int64_t b, int64_t t, double beta) const;

  /// Swaps the worker pool (non-owning; null reverts to serial). Noise is
  /// keyed per (b, level, draw), so the shard grid never changes a row.
  void set_pool(util::ThreadPool* pool) { pool_ = pool; }

 private:
  CounterBank() = default;

  int64_t horizon_ = 0;
  int64_t population_ = 0;
  int64_t t_ = 0;
  util::ThreadPool* pool_ = nullptr;  // not owned
  std::vector<double> shares_;
  std::vector<std::unique_ptr<StreamCounter>> counters_;  // index b-1
  /// Non-owning fast-path view of counters_: entry b-1 is non-null iff
  /// counter b is a TreeCounter (resolved once at Create so the per-round
  /// loop never pays dynamic dispatch for the default configuration).
  std::vector<TreeCounter*> tree_fast_;
  std::vector<int64_t> raw_;
  std::vector<int64_t> monotone_;
  std::vector<int64_t> prev_monotone_;
};

}  // namespace stream
}  // namespace longdp

#endif  // LONGDP_STREAM_COUNTER_BANK_H_
