#include "core/synthetic_cohort.h"

#include "util/batch_sampler.h"

namespace longdp {
namespace core {

namespace {

/// Sets bits [begin, end) of a packed round: whole words in the middle,
/// masked words at the ends.
void SetBitRange(uint64_t* words, int64_t begin, int64_t end) {
  if (begin >= end) return;
  const int64_t first = begin >> 6;
  const int64_t last = (end - 1) >> 6;
  const uint64_t head = ~uint64_t{0} << (begin & 63);
  const uint64_t tail = ~uint64_t{0} >> (63 - ((end - 1) & 63));
  if (first == last) {
    words[first] |= head & tail;
    return;
  }
  words[first] |= head;
  for (int64_t w = first + 1; w < last; ++w) words[w] = ~uint64_t{0};
  words[last] |= tail;
}

}  // namespace

Result<SyntheticCohort> SyntheticCohort::Create(
    int window_k, const std::vector<int64_t>& initial_counts) {
  LONGDP_RETURN_NOT_OK(util::ValidateWindow(window_k));
  if (initial_counts.size() != util::NumPatterns(window_k)) {
    return Status::InvalidArgument("initial_counts size must be 2^k");
  }
  for (int64_t c : initial_counts) {
    if (c < 0) {
      return Status::InvalidArgument(
          "initial cohort counts must be non-negative (pad the histogram)");
    }
  }
  SyntheticCohort cohort;
  cohort.k_ = window_k;
  cohort.rounds_ = window_k;
  cohort.pattern_count_ = initial_counts;
  // Counting-sort build: per-overlap totals are one pass over the census,
  // then records scatter straight into their flat group slots.
  cohort.groups_.Reset(util::NumPatterns(window_k - 1));
  for (util::Pattern s = 0; s < initial_counts.size(); ++s) {
    cohort.groups_.AddCount(util::Overlap(s, window_k), initial_counts[s]);
  }
  cohort.groups_.BuildOffsets();
  cohort.groups_next_.Reset(util::NumPatterns(window_k - 1));
  int64_t total = 0;
  for (int64_t c : initial_counts) total += c;
  cohort.num_records_ = total;
  const size_t wpr = static_cast<size_t>((total + 63) >> 6);
  cohort.words_per_round_ = wpr;
  cohort.history_words_.assign(wpr * static_cast<size_t>(window_k), 0);
  // Pattern s seeds initial_counts[s] consecutive record ids, so each
  // group placement is one sequence append and each record's history is a
  // per-round bit-range fill (the rounds are already zero-filled; only
  // 1-runs need writes). Same record ids, member order, and bits as the
  // per-record loop this replaces.
  int64_t next_record = 0;
  for (util::Pattern s = 0; s < initial_counts.size(); ++s) {
    const int64_t c = initial_counts[s];
    if (c == 0) continue;
    cohort.groups_.PlaceSequence(util::Overlap(s, window_k), next_record, c);
    for (int j = 0; j < window_k; ++j) {
      if ((s >> (window_k - 1 - j)) & 1) {
        SetBitRange(cohort.history_words_.data() + static_cast<size_t>(j) * wpr,
                    next_record, next_record + c);
      }
    }
    next_record += c;
  }
  return cohort;
}

Status SyntheticCohort::AdvanceRound(const std::vector<int64_t>& ones_target,
                                     const util::SubstreamRng& stream,
                                     util::ThreadPool* pool) {
  size_t num_overlaps = util::NumPatterns(k_ - 1);
  if (ones_target.size() != num_overlaps) {
    return Status::InvalidArgument("ones_target size must be 2^(k-1)");
  }
  for (util::Pattern z = 0; z < num_overlaps; ++z) {
    int64_t target = ones_target[z];
    int64_t group = GroupSize(z);
    if (target < 0 || target > group) {
      return Status::InvalidArgument(
          "ones_target[" + util::PatternToString(z, k_ - 1) + "]=" +
          std::to_string(target) + " outside [0, group=" +
          std::to_string(group) + "]");
    }
  }

  // Counting-sort regroup: every next-round pattern count — and therefore
  // every next-round overlap group size — is known arithmetically from the
  // targets before any record moves, so the regroup is count/prefix-sum/
  // scatter into the flat double buffer. The new round itself is one
  // zero-filled column append into the flat history matrix.
  const util::Pattern half = util::Pattern{1} << (k_ - 1);
  std::vector<int64_t>& new_counts = count_scratch_;
  new_counts.assign(util::NumPatterns(k_), 0);
  groups_next_.Reset(num_overlaps);
  for (util::Pattern z = 0; z < num_overlaps; ++z) {
    const int64_t group = GroupSize(z);
    const int64_t target = ones_target[z];
    new_counts[(z << 1)] = group - target;      // width-k pattern z then 0
    new_counts[(z << 1) | 1] = target;          // width-k pattern z then 1
  }
  for (util::Pattern o = 0; o < num_overlaps; ++o) {
    // Width-k patterns whose low k-1 bits equal o: o itself and o | half.
    groups_next_.AddCount(o, new_counts[o] + new_counts[o | half]);
  }
  groups_next_.BuildOffsets();

  const size_t col_base = static_cast<size_t>(rounds_) * words_per_round_;
  history_words_.resize(col_base + words_per_round_, 0);
  uint64_t* col = history_words_.data() + col_base;
  // Pass 1 — the draws: uniformly choose which records get the
  // 1-extension by a batched partial shuffle that puts a random
  // `target`-subset at the group's front. Overlap z draws only from its
  // keyed substream stream.Leaf(z) and mutates only its own member slice,
  // so the groups shard freely; the target == 0 and target == group
  // (whole-group) edges need no draw at all.
  util::ShardedFor(
      pool, static_cast<int64_t>(num_overlaps),
      [&](int /*shard*/, int64_t begin, int64_t end) {
        for (int64_t zi = begin; zi < end; ++zi) {
          const util::Pattern z = static_cast<util::Pattern>(zi);
          const int64_t target = ones_target[z];
          const int64_t group = groups_.size(z);
          if (target > 0 && target < group) {
            util::SubstreamRng group_stream =
                stream.Leaf(static_cast<uint64_t>(z));
            util::BatchSampler sampler(&group_stream);
            sampler.PartialShuffle(groups_.group_data(z), group, target);
          }
        }
      });
  // Pass 2 — the scatter: destination groups interleave across source
  // overlaps (z0 and z1 of different z can share an overlap), so the
  // regroup stays serial, in overlap order. Within a source overlap the
  // shuffle left the promoted subset at the front, so the per-record loop
  // collapses to two ranged appends (ones first, zeros second — the same
  // member order) plus the 1-bit writes; the zero extensions need no
  // writes at all, the appended round is already zero-filled.
  for (util::Pattern z = 0; z < num_overlaps; ++z) {
    int64_t* members = groups_.group_data(z);
    const int64_t target = ones_target[z];
    const int64_t group = groups_.size(z);
    for (int64_t i = 0; i < target; ++i) {
      col[members[i] >> 6] |= uint64_t{1} << (members[i] & 63);
    }
    groups_next_.PlaceRange(util::Overlap((z << 1) | 1, k_), members,
                            target);
    groups_next_.PlaceRange(util::Overlap(z << 1, k_), members + target,
                            group - target);
  }
  groups_.swap(groups_next_);
  pattern_count_.swap(new_counts);
  ++rounds_;
  return Status::OK();
}

std::vector<int64_t> SyntheticCohort::WindowHistogram() const {
  return pattern_count_;
}

Result<data::LongitudinalDataset> SyntheticCohort::ToDataset(
    int64_t horizon) const {
  if (horizon < rounds_) {
    return Status::InvalidArgument("horizon must be >= rounds()");
  }
  LONGDP_ASSIGN_OR_RETURN(
      auto ds, data::LongitudinalDataset::Create(num_records_, horizon));
  for (int64_t t = 1; t <= rounds_; ++t) {
    LONGDP_RETURN_NOT_OK(ds.AppendPackedRound(Round(t)));
  }
  return ds;
}

}  // namespace core
}  // namespace longdp
