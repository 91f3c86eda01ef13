#include "stream/counter_bank.h"

#include <algorithm>

#include "stream/tree_counter.h"
#include "util/substream.h"

namespace longdp {
namespace stream {

Result<std::unique_ptr<CounterBank>> CounterBank::Create(
    const Options& options, dp::ZCdpAccountant* accountant) {
  if (options.horizon < 1) {
    return Status::InvalidArgument("CounterBank horizon must be >= 1");
  }
  if (options.population < 0) {
    return Status::InvalidArgument("CounterBank population must be >= 0");
  }
  if (!(options.total_rho > 0.0)) {
    return Status::InvalidArgument("CounterBank total_rho must be > 0");
  }
  const std::shared_ptr<const StreamCounterFactory> factory =
      options.factory ? options.factory : DefaultCounterFactory();

  LONGDP_ASSIGN_OR_RETURN(
      auto shares,
      SplitBudget(options.split, options.horizon, options.total_rho));

  auto bank = std::unique_ptr<CounterBank>(new CounterBank());
  bank->horizon_ = options.horizon;
  bank->population_ = options.population;
  bank->pool_ = options.pool;
  bank->shares_ = shares;
  bank->counters_.reserve(static_cast<size_t>(options.horizon));
  const util::SubstreamRng noise_root(options.seed,
                                      util::substream::kCounterNoise);
  for (int64_t b = 1; b <= options.horizon; ++b) {
    int64_t stream_len = options.horizon - b + 1;
    double rho_b = shares[static_cast<size_t>(b - 1)];
    if (accountant != nullptr) {
      LONGDP_RETURN_NOT_OK(accountant->Charge(
          rho_b, "stream-counter b=" + std::to_string(b)));
    }
    LONGDP_ASSIGN_OR_RETURN(
        auto counter,
        factory->Create(stream_len, rho_b,
                        noise_root.Derive(static_cast<uint64_t>(b))));
    bank->counters_.push_back(std::move(counter));
  }
  bank->tree_fast_.reserve(bank->counters_.size());
  for (const auto& counter : bank->counters_) {
    bank->tree_fast_.push_back(dynamic_cast<TreeCounter*>(counter.get()));
  }
  size_t row = static_cast<size_t>(options.horizon) + 1;
  bank->raw_.assign(row, 0);
  bank->monotone_.assign(row, 0);
  bank->prev_monotone_.assign(row, 0);
  bank->raw_[0] = options.population;
  bank->monotone_[0] = options.population;
  // Shat^0: row (n, 0, 0, ..., 0) — nobody has >= 1 ones before any data.
  bank->prev_monotone_[0] = options.population;
  return bank;
}

Status CounterBank::ObserveRound(std::span<const int64_t> z) {
  if (t_ >= horizon_) {
    return Status::OutOfRange("CounterBank past its horizon T=" +
                              std::to_string(horizon_));
  }
  if (z.size() != static_cast<size_t>(horizon_)) {
    return Status::InvalidArgument(
        "ObserveRound expects one increment per threshold b=1..T");
  }
  // Validate before advancing the clock: a rejected round must leave the
  // bank untouched (t_ and the counters in lockstep).
  for (int64_t b = t_ + 2; b <= horizon_; ++b) {
    if (z[static_cast<size_t>(b - 1)] != 0) {
      return Status::InvalidArgument(
          "increment for threshold b=" + std::to_string(b) +
          " must be 0 at time t=" + std::to_string(t_ + 1) +
          " (weight cannot exceed elapsed time)");
    }
  }
  ++t_;

  raw_[0] = population_;
  monotone_[0] = population_;
  // One pass over the active counters b = 1..min(t, T). Counters beyond t
  // have not started (their streams begin at t = b) and stay at raw 0.
  // Each counter owns keyed substreams, so the pass shards cleanly: shard
  // boundaries only decide WHO advances counter b, never WHICH noise it
  // draws. Statuses are collected per shard and checked after the barrier
  // (a failed counter is a programming error, not a data race).
  const int64_t active = std::min(t_, horizon_);
  const int num_shards = util::NumShards(pool_);
  std::vector<Status> shard_status(static_cast<size_t>(num_shards),
                                   Status::OK());
  util::ShardedFor(
      pool_, active, [&](int shard, int64_t begin, int64_t end) {
        for (int64_t k = begin; k < end; ++k) {
          const size_t ib = static_cast<size_t>(k) + 1;
          if (TreeCounter* tree = tree_fast_[ib - 1]) {
            // Bank invariant (t_ <= T implies counter b took <= T-b+1
            // steps) guarantees the counter is within its horizon; Step
            // skips the virtual call and the per-call range check.
            raw_[ib] = tree->Step(z[ib - 1]);
          } else {
            Result<int64_t> s = counters_[ib - 1]->Observe(z[ib - 1]);
            if (!s.ok()) {
              shard_status[static_cast<size_t>(shard)] = s.status();
              return;
            }
            raw_[ib] = s.value();
          }
        }
      });
  for (const Status& s : shard_status) {
    LONGDP_RETURN_NOT_OK(s);
  }
  for (int64_t b = active + 1; b <= horizon_; ++b) {
    raw_[static_cast<size_t>(b)] = 0;
  }
  for (int64_t b = 1; b <= horizon_; ++b) {
    size_t ib = static_cast<size_t>(b);
    // Monotonize: Shat^{t-1}_b <= Shat^t_b <= Shat^{t-1}_{b-1}.
    int64_t lower = prev_monotone_[ib];
    int64_t upper = prev_monotone_[ib - 1];
    monotone_[ib] = std::min(std::max(raw_[ib], lower), upper);
  }
  prev_monotone_ = monotone_;
  return Status::OK();
}

}  // namespace stream
}  // namespace longdp
