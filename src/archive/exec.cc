#include "archive/exec.h"

#include <string>

#include "query/cumulative_query.h"
#include "query/debias.h"
#include "query/spells.h"
#include "util/bits.h"
#include "util/simd/simd.h"

namespace longdp {
namespace archive {

std::vector<const ArchiveEntry*> Exec::Select(const Filter& filter) const {
  std::vector<const ArchiveEntry*> out;
  ForEachMatch(filter, [&](const ArchiveEntry& e) { out.push_back(&e); });
  return out;
}

int64_t Exec::CountEntries(const Filter& filter) const {
  int64_t count = 0;
  ForEachMatch(filter, [&](const ArchiveEntry&) { ++count; });
  return count;
}

std::vector<int64_t> Exec::GroupCountByLabel(const Filter& filter) const {
  std::vector<int64_t> counts(reader_->labels().size(), 0);
  ForEachMatch(filter, [&](const ArchiveEntry& e) { ++counts[e.label_id]; });
  return counts;
}

Status Exec::RequireKind(const ArchiveEntry& entry, EntryKind kind) const {
  if (entry.kind != kind) {
    return Status::InvalidArgument("archive entry has the wrong kind for "
                                   "this query");
  }
  return Status::OK();
}

Result<int64_t> Exec::WindowCount(const ArchiveEntry& entry,
                                  const query::WindowPredicate& pred) const {
  LONGDP_RETURN_NOT_OK(RequireKind(entry, EntryKind::kWindow));
  return query::CountOnHistogram(pred, reader_->Values(entry),
                                 entry.window_k);
}

Result<double> Exec::DebiasedWindowFraction(
    const ArchiveEntry& entry, const query::WindowPredicate& pred) const {
  LONGDP_ASSIGN_OR_RETURN(const int64_t count, WindowCount(entry, pred));
  query::PaddingSpec spec;
  spec.synth_width = entry.window_k;
  spec.npad = entry.npad;
  spec.true_n = entry.true_n;
  return query::DebiasedFraction(count, pred, spec);
}

Result<double> Exec::BiasedWindowFraction(
    const ArchiveEntry& entry, const query::WindowPredicate& pred) const {
  LONGDP_ASSIGN_OR_RETURN(const int64_t count, WindowCount(entry, pred));
  int64_t population = 0;
  for (int64_t c : reader_->Values(entry)) population += c;
  return query::BiasedFraction(count, population);
}

Result<double> Exec::CumulativeFraction(const ArchiveEntry& entry,
                                        int64_t b) const {
  LONGDP_RETURN_NOT_OK(RequireKind(entry, EntryKind::kCumulative));
  const std::span<const int64_t> thresholds = reader_->Values(entry);
  if (b < 0 || static_cast<size_t>(b) >= thresholds.size()) {
    return Status::OutOfRange("threshold b out of range");
  }
  const int64_t population = thresholds[0];
  // ReleaseAnalyzer::CumulativeFraction answers 0.0 for an empty released
  // population; mirrored here so the two paths stay bit-identical.
  if (population <= 0) return 0.0;
  return static_cast<double>(thresholds[static_cast<size_t>(b)]) /
         static_cast<double>(population);
}

Result<int64_t> Exec::CountOccExact(const ArchiveEntry& entry_t1,
                                    const ArchiveEntry& entry_t2,
                                    int64_t b) const {
  LONGDP_RETURN_NOT_OK(RequireKind(entry_t1, EntryKind::kCumulative));
  LONGDP_RETURN_NOT_OK(RequireKind(entry_t2, EntryKind::kCumulative));
  if (entry_t1.t >= entry_t2.t) {
    return Status::InvalidArgument("requires t1 < t2");
  }
  return query::CountOccExactFromThresholds(reader_->Values(entry_t2),
                                            reader_->Values(entry_t1), b);
}

Result<double> Exec::CategoricalBinFraction(const ArchiveEntry& entry,
                                            uint64_t code) const {
  LONGDP_RETURN_NOT_OK(RequireKind(entry, EntryKind::kCategorical));
  const std::span<const int64_t> hist = reader_->Values(entry);
  if (code >= hist.size()) {
    return Status::OutOfRange("pattern code out of range");
  }
  if (entry.true_n <= 0) {
    return Status::InvalidArgument("released true_n must be > 0");
  }
  // int64 subtract, then cast — the synthesizer's and ReleaseAnalyzer's
  // exact arithmetic.
  return static_cast<double>(hist[code] - entry.npad) /
         static_cast<double>(entry.true_n);
}

Result<std::vector<data::RoundView>> Exec::CohortRounds(
    const ArchiveEntry& entry, int64_t t) const {
  LONGDP_RETURN_NOT_OK(RequireKind(entry, EntryKind::kCohort));
  if (t < 1 || t > entry.rounds) {
    return Status::OutOfRange("time t must be in [1, rounds]");
  }
  std::vector<data::RoundView> rounds;
  rounds.reserve(static_cast<size_t>(t));
  for (int64_t tt = 1; tt <= t; ++tt) {
    rounds.push_back(reader_->CohortRound(entry, tt));
  }
  return rounds;
}

Result<std::vector<int64_t>> Exec::CohortWindowHistogram(
    const ArchiveEntry& entry, int64_t t, int k) const {
  LONGDP_RETURN_NOT_OK(RequireKind(entry, EntryKind::kCohort));
  LONGDP_RETURN_NOT_OK(util::ValidateWindow(k));
  if (k > util::simd::kMaxPlanes) {
    return Status::InvalidArgument(
        "CohortWindowHistogram supports k <= 16 (PlaneHistogram plane cap)");
  }
  if (t < k || t > entry.rounds) {
    return Status::OutOfRange("requires k <= t <= rounds");
  }
  // Code bit j is the panel bit from j rounds ago (util::Pattern encodes
  // the newest bit lowest), so plane j is simply the packed words of round
  // t - j — the stored columns ARE the bit-sliced planes.
  std::vector<const uint64_t*> planes(static_cast<size_t>(k));
  for (int j = 0; j < k; ++j) {
    planes[static_cast<size_t>(j)] =
        reader_->CohortRound(entry, t - j).words();
  }
  const size_t num_words = CohortWordsPerRound(entry.count);
  std::vector<int64_t> hist(util::NumPatterns(k), 0);
  util::simd::PlaneHistogram(planes.data(), k, nullptr, num_words,
                             hist.data());
  // Unmasked tail lanes past the population all counted into hist[0]
  // (their planes are zero by the RoundView trailing-bit invariant).
  hist[0] -= static_cast<int64_t>(num_words) * 64 - entry.count;
  return hist;
}

Result<double> Exec::CohortEverHadSpell(const ArchiveEntry& entry, int64_t t,
                                        int64_t min_len) const {
  LONGDP_ASSIGN_OR_RETURN(const auto rounds, CohortRounds(entry, t));
  return query::EverHadSpell(std::span<const data::RoundView>(rounds), t,
                             min_len);
}

Result<double> Exec::CohortOngoingSpellAtLeast(const ArchiveEntry& entry,
                                               int64_t t,
                                               int64_t min_len) const {
  LONGDP_ASSIGN_OR_RETURN(const auto rounds, CohortRounds(entry, t));
  return query::OngoingSpellAtLeast(std::span<const data::RoundView>(rounds),
                                    t, min_len);
}

Result<std::vector<int64_t>> Exec::CohortSpellLengthHistogram(
    const ArchiveEntry& entry, int64_t t) const {
  LONGDP_ASSIGN_OR_RETURN(const auto rounds, CohortRounds(entry, t));
  return query::SpellLengthHistogram(std::span<const data::RoundView>(rounds),
                                     t);
}

Result<double> Exec::CohortMeanSpellLength(const ArchiveEntry& entry,
                                           int64_t t) const {
  LONGDP_ASSIGN_OR_RETURN(const auto rounds, CohortRounds(entry, t));
  return query::MeanSpellLength(std::span<const data::RoundView>(rounds), t);
}

}  // namespace archive
}  // namespace longdp
