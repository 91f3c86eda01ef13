#include "core/release_analyzer.h"

#include "query/cumulative_query.h"

namespace longdp {
namespace core {

ReleaseAnalyzer::ReleaseAnalyzer(const ReleaseLog& log) : log_(log) {
  for (const auto& r : log.window_releases()) {
    window_by_t_[r.t] = &r;
  }
  for (const auto& r : log.cumulative_releases()) {
    cumulative_by_t_[r.t] = &r;
  }
  for (const auto& r : log.categorical_releases()) {
    categorical_by_t_[r.t] = &r;
  }
}

std::vector<int64_t> ReleaseAnalyzer::WindowTimes() const {
  std::vector<int64_t> times;
  times.reserve(window_by_t_.size());
  for (const auto& [t, r] : window_by_t_) times.push_back(t);
  return times;
}

std::vector<int64_t> ReleaseAnalyzer::CumulativeTimes() const {
  std::vector<int64_t> times;
  times.reserve(cumulative_by_t_.size());
  for (const auto& [t, r] : cumulative_by_t_) times.push_back(t);
  return times;
}

std::vector<int64_t> ReleaseAnalyzer::CategoricalTimes() const {
  std::vector<int64_t> times;
  times.reserve(categorical_by_t_.size());
  for (const auto& [t, r] : categorical_by_t_) times.push_back(t);
  return times;
}

Result<double> ReleaseAnalyzer::WindowFraction(
    int64_t t, const query::WindowPredicate& pred) const {
  auto it = window_by_t_.find(t);
  if (it == window_by_t_.end()) {
    return Status::NotFound("no window release at t=" + std::to_string(t));
  }
  const WindowRelease& release = *it->second;
  LONGDP_ASSIGN_OR_RETURN(
      int64_t count,
      query::CountOnHistogram(pred, release.histogram, release.window_k));
  query::PaddingSpec spec;
  spec.synth_width = release.window_k;
  spec.npad = release.npad;
  spec.true_n = release.true_n;
  return query::DebiasedFraction(count, pred, spec);
}

Result<double> ReleaseAnalyzer::BiasedWindowFraction(
    int64_t t, const query::WindowPredicate& pred) const {
  auto it = window_by_t_.find(t);
  if (it == window_by_t_.end()) {
    return Status::NotFound("no window release at t=" + std::to_string(t));
  }
  const WindowRelease& release = *it->second;
  LONGDP_ASSIGN_OR_RETURN(
      int64_t count,
      query::CountOnHistogram(pred, release.histogram, release.window_k));
  LONGDP_ASSIGN_OR_RETURN(const int64_t population,
                          query::HistogramPopulation(release.histogram));
  return query::BiasedFraction(count, population);
}

Result<double> ReleaseAnalyzer::CumulativeFraction(int64_t t,
                                                   int64_t b) const {
  auto it = cumulative_by_t_.find(t);
  if (it == cumulative_by_t_.end()) {
    return Status::NotFound("no cumulative release at t=" +
                            std::to_string(t));
  }
  const CumulativeRelease& release = *it->second;
  if (b < 0 || static_cast<size_t>(b) >= release.thresholds.size()) {
    return Status::OutOfRange("threshold b out of range");
  }
  int64_t population = release.thresholds[0];
  if (population <= 0) return 0.0;
  return static_cast<double>(release.thresholds[static_cast<size_t>(b)]) /
         static_cast<double>(population);
}

Result<int64_t> ReleaseAnalyzer::CountOccExact(int64_t t1, int64_t t2,
                                               int64_t b) const {
  if (t1 >= t2) {
    return Status::InvalidArgument("requires t1 < t2");
  }
  auto it1 = cumulative_by_t_.find(t1);
  auto it2 = cumulative_by_t_.find(t2);
  if (it1 == cumulative_by_t_.end() || it2 == cumulative_by_t_.end()) {
    return Status::NotFound("missing cumulative release at t1 or t2");
  }
  return query::CountOccExactFromThresholds(it2->second->thresholds,
                                            it1->second->thresholds, b);
}

Result<double> ReleaseAnalyzer::CategoricalBinFraction(int64_t t,
                                                       uint64_t code) const {
  auto it = categorical_by_t_.find(t);
  if (it == categorical_by_t_.end()) {
    return Status::NotFound("no categorical release at t=" +
                            std::to_string(t));
  }
  const CategoricalRelease& release = *it->second;
  if (code >= release.histogram.size()) {
    return Status::OutOfRange("pattern code out of range");
  }
  // The archive executor answers through the same helper, so the two
  // analyst paths agree bit-for-bit.
  return query::DebiasedBinFraction(release.histogram[code], release.npad,
                                    release.true_n);
}

}  // namespace core
}  // namespace longdp
