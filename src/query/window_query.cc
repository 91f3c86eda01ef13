#include "query/window_query.h"

#include <cmath>

namespace longdp {
namespace query {

namespace {

class PatternEqualsPredicate : public WindowPredicate {
 public:
  PatternEqualsPredicate(util::Pattern s, int k) : s_(s), k_(k) {}
  int width() const override { return k_; }
  bool Matches(util::Pattern suffix) const override { return suffix == s_; }
  std::string name() const override {
    return "pattern=" + util::PatternToString(s_, k_);
  }

 private:
  util::Pattern s_;
  int k_;
};

class AtLeastOnesPredicate : public WindowPredicate {
 public:
  AtLeastOnesPredicate(int k, int m) : k_(k), m_(m) {}
  int width() const override { return k_; }
  bool Matches(util::Pattern suffix) const override {
    return util::Popcount(suffix) >= m_;
  }
  std::string name() const override {
    return ">=" + std::to_string(m_) + "-ones/" + std::to_string(k_);
  }

 private:
  int k_;
  int m_;
};

class ConsecutiveOnesPredicate : public WindowPredicate {
 public:
  ConsecutiveOnesPredicate(int k, int run) : k_(k), run_(run) {}
  int width() const override { return k_; }
  bool Matches(util::Pattern suffix) const override {
    return util::HasOnesRun(suffix, k_, run_);
  }
  std::string name() const override {
    return ">=" + std::to_string(run_) + "-consecutive/" + std::to_string(k_);
  }

 private:
  int k_;
  int run_;
};

class CustomPredicate : public WindowPredicate {
 public:
  CustomPredicate(int k, std::string name,
                  std::function<bool(util::Pattern)> fn)
      : k_(k), name_(std::move(name)), fn_(std::move(fn)) {}
  int width() const override { return k_; }
  bool Matches(util::Pattern suffix) const override { return fn_(suffix); }
  std::string name() const override { return name_; }

 private:
  int k_;
  std::string name_;
  std::function<bool(util::Pattern)> fn_;
};

}  // namespace

int64_t WindowPredicate::MatchingPatternCount() const {
  int64_t count = 0;
  for (util::Pattern s = 0; s < util::NumPatterns(width()); ++s) {
    if (Matches(s)) ++count;
  }
  return count;
}

WindowPredicatePtr MakePatternEquals(util::Pattern s, int k) {
  return std::make_shared<PatternEqualsPredicate>(s, k);
}

WindowPredicatePtr MakeAtLeastOnes(int k, int m) {
  return std::make_shared<AtLeastOnesPredicate>(k, m);
}

WindowPredicatePtr MakeConsecutiveOnes(int k, int run) {
  return std::make_shared<ConsecutiveOnesPredicate>(k, run);
}

WindowPredicatePtr MakeAllOnes(int k) {
  return std::make_shared<AtLeastOnesPredicate>(k, k);
}

WindowPredicatePtr MakeCustomPredicate(int k, std::string name,
                                       std::function<bool(util::Pattern)> fn) {
  return std::make_shared<CustomPredicate>(k, std::move(name), std::move(fn));
}

Result<double> EvaluateOnDataset(const WindowPredicate& pred,
                                 const data::LongitudinalDataset& dataset,
                                 int64_t t) {
  if (t < 1 || t > dataset.rounds()) {
    return Status::OutOfRange("query time t must be in [1, rounds()]");
  }
  if (dataset.num_users() == 0) return 0.0;
  int64_t count = 0;
  // Block pattern extraction: 64 users' suffixes from width-many packed
  // round words instead of per-user Bit() loads.
  dataset.ForEachSuffixPattern(t, pred.width(),
                               [&](int64_t, util::Pattern p) {
                                 if (pred.Matches(p)) ++count;
                               });
  return static_cast<double>(count) /
         static_cast<double>(dataset.num_users());
}

Result<int64_t> CountOnHistogram(const WindowPredicate& pred,
                                 std::span<const int64_t> hist,
                                 int hist_width) {
  LONGDP_RETURN_NOT_OK(util::ValidateWindow(hist_width));
  if (pred.width() > hist_width) {
    return Status::InvalidArgument(
        "predicate width exceeds histogram width; only queries of width <= k "
        "are supported by a width-k synthesizer");
  }
  if (hist.size() != util::NumPatterns(hist_width)) {
    return Status::InvalidArgument("histogram size must be 2^hist_width");
  }
  int64_t count = 0;
  for (util::Pattern s = 0; s < hist.size(); ++s) {
    if (pred.Matches(util::Suffix(s, pred.width())) &&
        __builtin_add_overflow(count, hist[s], &count)) {
      return Status::InvalidArgument("histogram count overflows int64");
    }
  }
  return count;
}

Result<int64_t> CountOnHistogram(const WindowPredicate& pred,
                                 const std::vector<int64_t>& hist,
                                 int hist_width) {
  return CountOnHistogram(pred, std::span<const int64_t>(hist), hist_width);
}

Result<LinearWindowQuery> LinearWindowQuery::Create(
    int k, std::vector<double> weights) {
  LONGDP_RETURN_NOT_OK(util::ValidateWindow(k));
  if (weights.size() != util::NumPatterns(k)) {
    return Status::InvalidArgument("weights size must be 2^k");
  }
  return LinearWindowQuery(k, std::move(weights));
}

Result<LinearWindowQuery> LinearWindowQuery::FromPredicate(
    const WindowPredicate& pred, int k) {
  LONGDP_RETURN_NOT_OK(util::ValidateWindow(k));
  if (pred.width() > k) {
    return Status::InvalidArgument("predicate width exceeds k");
  }
  std::vector<double> w(util::NumPatterns(k), 0.0);
  for (util::Pattern s = 0; s < w.size(); ++s) {
    if (pred.Matches(util::Suffix(s, pred.width()))) w[s] = 1.0;
  }
  return LinearWindowQuery(k, std::move(w));
}

double LinearWindowQuery::WeightL2Norm() const {
  double s = 0.0;
  for (double w : weights_) s += w * w;
  return std::sqrt(s);
}

Result<double> LinearWindowQuery::EvaluateOnHistogram(
    const std::vector<int64_t>& hist) const {
  if (hist.size() != weights_.size()) {
    return Status::InvalidArgument("histogram size must be 2^k");
  }
  double v = 0.0;
  for (size_t s = 0; s < hist.size(); ++s) {
    v += weights_[s] * static_cast<double>(hist[s]);
  }
  return v;
}

Result<double> LinearWindowQuery::EvaluateOnDataset(
    const data::LongitudinalDataset& dataset, int64_t t) const {
  if (t < 1 || t > dataset.rounds()) {
    return Status::OutOfRange("query time t must be in [1, rounds()]");
  }
  if (dataset.num_users() == 0) return 0.0;
  double v = 0.0;
  dataset.ForEachSuffixPattern(
      t, k_, [&](int64_t, util::Pattern p) { v += weights_[p]; });
  return v / static_cast<double>(dataset.num_users());
}

}  // namespace query
}  // namespace longdp
