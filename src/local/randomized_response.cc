#include "local/randomized_response.h"

#include <cmath>

namespace longdp {
namespace local {

const char* ReportStrategyName(ReportStrategy strategy) {
  switch (strategy) {
    case ReportStrategy::kFreshPerRound:
      return "fresh-per-round";
    case ReportStrategy::kMemoized:
      return "memoized";
  }
  return "?";
}

LocalFrequencyOracle::LocalFrequencyOracle(const Options& options)
    : options_(options) {
  switch (options.strategy) {
    case ReportStrategy::kFreshPerRound:
      // One fresh report per round; user-level budget splits across T.
      eps0_ = options.epsilon / static_cast<double>(options.horizon);
      break;
    case ReportStrategy::kMemoized:
      // One permanent response per (user, true value); a user with at most
      // F flips exposes at most 2F + 1 "fresh" uses — budget per memoized
      // draw epsilon / (2 flip_bound).
      eps0_ = options.epsilon /
              (2.0 * static_cast<double>(options.flip_bound));
      break;
  }
  // Binary randomized response achieving eps0-DP per report:
  //   report truth with prob e^eps0 / (1 + e^eps0).
  double e = std::exp(eps0_);
  p_ = e / (1.0 + e);
  q_ = 1.0 - p_;
}

Result<std::unique_ptr<LocalFrequencyOracle>> LocalFrequencyOracle::Create(
    const Options& options) {
  if (options.horizon < 1) {
    return Status::InvalidArgument("horizon must be >= 1");
  }
  if (!(options.epsilon > 0.0) || std::isinf(options.epsilon)) {
    return Status::InvalidArgument(
        "local model requires a finite epsilon > 0");
  }
  if (options.strategy == ReportStrategy::kMemoized &&
      options.flip_bound < 1) {
    return Status::InvalidArgument("flip_bound must be >= 1");
  }
  return std::unique_ptr<LocalFrequencyOracle>(
      new LocalFrequencyOracle(options));
}

Result<double> LocalFrequencyOracle::ObserveRound(data::RoundView round,
                                                  util::Rng* rng) {
  if (t_ >= options_.horizon) {
    return Status::OutOfRange("local oracle past its horizon");
  }
  if (n_ < 0) {
    n_ = round.size();
    if (options_.strategy == ReportStrategy::kMemoized) {
      memo_zero_.assign(static_cast<size_t>(n_), -1);
      memo_one_.assign(static_cast<size_t>(n_), -1);
    }
  } else if (round.size() != n_) {
    return Status::InvalidArgument("round size changed");
  }
  ++t_;
  if (n_ == 0) return 0.0;

  int64_t report_ones = 0;
  for (int64_t i = 0; i < n_; ++i) {
    const int bit = round.bit(i);
    int report;
    if (options_.strategy == ReportStrategy::kFreshPerRound) {
      bool keep = rng->Bernoulli(p_);
      report = keep ? bit : 1 - bit;
    } else {
      auto& memo = bit ? memo_one_ : memo_zero_;
      if (memo[static_cast<size_t>(i)] < 0) {
        bool keep = rng->Bernoulli(p_);
        memo[static_cast<size_t>(i)] =
            static_cast<int8_t>(keep ? bit : 1 - bit);
      }
      report = memo[static_cast<size_t>(i)];
    }
    report_ones += report;
  }
  double mean_report =
      static_cast<double>(report_ones) / static_cast<double>(n_);
  return (mean_report - q_) / (p_ - q_);
}

double LocalFrequencyOracle::EstimateStddevBound(int64_t n) const {
  if (n <= 0) return 0.0;
  return 1.0 / (2.0 * (p_ - q_) * std::sqrt(static_cast<double>(n)));
}

}  // namespace local
}  // namespace longdp
