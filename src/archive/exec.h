// Vectorized query executor over an open archive: filter/count/groupby
// over the entry index, plus the analyst-side window / debias / cumulative
// / categorical / spell queries served straight off the mapping.
//
// Answer-path guarantees (pinned by the archive test suites):
//   * DebiasedWindowFraction / BiasedWindowFraction / CumulativeFraction /
//     CountOccExact / CategoricalBinFraction are bit-identical to running
//     ReleaseAnalyzer over the CSV-rehydrated ReleaseLog of the same
//     stream — same validation, same integer arithmetic, same cast order.
//   * Spell queries run the same span-of-RoundView word loops as the
//     dataset path (query/spells.h), over zero-copy views of the stored
//     panel.
//   * CohortWindowHistogram equals LongitudinalDataset::WindowHistogram,
//     computed with the bit-sliced util::simd::PlaneHistogram kernel over
//     the packed round columns (plane j = the round t-j words).
//
// Exec is a thin non-owning view; the reader must outlive it. All methods
// are const and thread-safe for concurrent readers.

#ifndef LONGDP_ARCHIVE_EXEC_H_
#define LONGDP_ARCHIVE_EXEC_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "archive/reader.h"
#include "query/window_query.h"
#include "util/status.h"

namespace longdp {
namespace archive {

class Exec {
 public:
  explicit Exec(const ArchiveReader& reader) : reader_(&reader) {}

  /// Conjunctive entry filter; unset fields match everything.
  struct Filter {
    std::optional<EntryKind> kind;
    std::optional<uint32_t> label_id;
    std::optional<int64_t> t_min;
    std::optional<int64_t> t_max;

    bool Matches(const ArchiveEntry& entry) const {
      if (kind.has_value() && entry.kind != *kind) return false;
      if (label_id.has_value() && entry.label_id != *label_id) return false;
      if (t_min.has_value() && entry.t < *t_min) return false;
      if (t_max.has_value() && entry.t > *t_max) return false;
      return true;
    }
  };

  /// Entries matching the filter, in append order. Pointers into the
  /// reader's index; valid while the reader lives.
  std::vector<const ArchiveEntry*> Select(const Filter& filter) const;

  /// Number of matching entries.
  int64_t CountEntries(const Filter& filter) const;

  /// Matching-entry counts grouped by dictionary label: result[id] = count
  /// for label id (size = reader.labels().size()).
  std::vector<int64_t> GroupCountByLabel(const Filter& filter) const;

  /// Synthetic records matching `pred` in a window release (the raw count
  /// CountOnHistogram computes, served in place).
  Result<int64_t> WindowCount(const ArchiveEntry& entry,
                              const query::WindowPredicate& pred) const;

  /// Debiased population fraction — ReleaseAnalyzer::WindowFraction twin.
  Result<double> DebiasedWindowFraction(
      const ArchiveEntry& entry, const query::WindowPredicate& pred) const;

  /// Raw fraction on the padded counts — BiasedWindowFraction twin.
  Result<double> BiasedWindowFraction(
      const ArchiveEntry& entry, const query::WindowPredicate& pred) const;

  /// Threshold fraction Shat^t_b / Shat^t_0 — CumulativeFraction twin.
  Result<double> CumulativeFraction(const ArchiveEntry& entry,
                                    int64_t b) const;

  /// CountOcc_{=b} between two cumulative entries with t1 < t2.
  Result<int64_t> CountOccExact(const ArchiveEntry& entry_t1,
                                const ArchiveEntry& entry_t2,
                                int64_t b) const;

  /// Debiased base-A bin fraction — CategoricalBinFraction twin.
  Result<double> CategoricalBinFraction(const ArchiveEntry& entry,
                                        uint64_t code) const;

  /// Zero-copy views of cohort rounds 1..t (inputs to the span-based
  /// query::spells and query window evaluators).
  Result<std::vector<data::RoundView>> CohortRounds(const ArchiveEntry& entry,
                                                    int64_t t) const;

  /// Width-k window histogram of the stored panel at time t (requires
  /// k <= t <= rounds and k <= 16, the PlaneHistogram plane cap), equal to
  /// ToDataset().WindowHistogram(t, k) with no rehydration.
  Result<std::vector<int64_t>> CohortWindowHistogram(const ArchiveEntry& entry,
                                                     int64_t t, int k) const;

  /// Spell statistics on the stored panel through round t — the span-based
  /// query::spells primitives over the mapped round columns.
  Result<double> CohortEverHadSpell(const ArchiveEntry& entry, int64_t t,
                                    int64_t min_len) const;
  Result<double> CohortOngoingSpellAtLeast(const ArchiveEntry& entry,
                                           int64_t t, int64_t min_len) const;
  Result<std::vector<int64_t>> CohortSpellLengthHistogram(
      const ArchiveEntry& entry, int64_t t) const;
  Result<double> CohortMeanSpellLength(const ArchiveEntry& entry,
                                       int64_t t) const;

 private:
  /// Calls fn(entry) for every entry matching `filter`, in append order. A
  /// label filter visits only that label's entries
  /// (ArchiveReader::LabelEntries), not the whole index.
  template <typename Fn>
  void ForEachMatch(const Filter& filter, Fn&& fn) const {
    const std::vector<ArchiveEntry>& entries = reader_->entries();
    if (filter.label_id.has_value()) {
      for (size_t i : reader_->LabelEntries(*filter.label_id)) {
        if (filter.Matches(entries[i])) fn(entries[i]);
      }
      return;
    }
    for (const ArchiveEntry& e : entries) {
      if (filter.Matches(e)) fn(e);
    }
  }

  Status RequireKind(const ArchiveEntry& entry, EntryKind kind) const;

  const ArchiveReader* reader_;
};

}  // namespace archive
}  // namespace longdp

#endif  // LONGDP_ARCHIVE_EXEC_H_
