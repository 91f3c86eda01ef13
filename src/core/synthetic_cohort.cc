#include "core/synthetic_cohort.h"

#include <bit>
#include <string>

#include "core/limits.h"
#include "util/batch_sampler.h"

namespace longdp {
namespace core {

namespace {

/// b, the bits of one symbol.
int SymbolBits(int alphabet) {
  return std::bit_width(static_cast<unsigned>(alphabet - 1));
}

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

Result<uint64_t> SyntheticCohort::NumBins(int window_k, int alphabet) {
  if (window_k < 1) {
    return Status::InvalidArgument("window k must be >= 1");
  }
  if (alphabet < 2 || alphabet > 256) {
    return Status::InvalidArgument(
        "alphabet size must be in [2, 256] (symbols are bytes)");
  }
  const int64_t planes = int64_t{window_k} * SymbolBits(alphabet);
  if (planes > kMaxPlanes) {
    return Status::InvalidArgument(
        "window k * bit_width(A - 1) must be at most " +
        std::to_string(kMaxPlanes) + " bit planes, got " +
        std::to_string(planes));
  }
  uint64_t bins = 1;
  for (int j = 0; j < window_k; ++j) bins *= static_cast<uint64_t>(alphabet);
  return bins;
}

Result<SyntheticCohort> SyntheticCohort::Create(
    int window_k, int alphabet, const std::vector<int64_t>& census) {
  LONGDP_ASSIGN_OR_RETURN(const uint64_t bins, NumBins(window_k, alphabet));
  if (census.size() != bins) {
    return Status::InvalidArgument("census size must be A^k");
  }
  for (int64_t c : census) {
    if (c < 0) {
      return Status::InvalidArgument(
          "initial cohort counts must be non-negative (pad the histogram)");
    }
  }
  SyntheticCohort cohort;
  cohort.k_ = window_k;
  cohort.alphabet_ = alphabet;
  cohort.symbol_bits_ = SymbolBits(alphabet);
  cohort.num_overlaps_ = bins / static_cast<uint64_t>(alphabet);
  cohort.rounds_ = window_k;
  cohort.pattern_count_ = census;
  // Counting-sort build: per-overlap totals are one pass over the census,
  // then records scatter straight into their flat group slots.
  cohort.groups_.Reset(cohort.num_overlaps_);
  for (uint64_t s = 0; s < bins; ++s) {
    cohort.groups_.AddCount(s % cohort.num_overlaps_, census[s]);
  }
  cohort.groups_.BuildOffsets();
  cohort.groups_next_.Reset(cohort.num_overlaps_);
  int64_t total = 0;
  for (int64_t c : census) total += c;
  cohort.num_records_ = total;
  const size_t wpr = static_cast<size_t>((total + 63) >> 6);
  const int b = cohort.symbol_bits_;
  cohort.words_per_round_ = wpr;
  cohort.history_words_.assign(wpr * static_cast<size_t>(window_k * b), 0);
  // Pattern s seeds census[s] consecutive record ids, so each group
  // placement is one sequence append and each history plane a bit-range
  // fill (the rounds are already zero-filled; only set bits need writes).
  const uint64_t a = static_cast<uint64_t>(alphabet);
  int64_t next_record = 0;
  for (uint64_t s = 0; s < bins; ++s) {
    const int64_t c = census[s];
    if (c == 0) continue;
    cohort.groups_.PlaceSequence(s % cohort.num_overlaps_, next_record, c);
    uint64_t code = s;
    for (int j = window_k - 1; j >= 0; --j) {
      const uint64_t digit = code % a;
      code /= a;
      for (int p = 0; p < b; ++p) {
        if ((digit >> p) & 1) {
          SetBitRange(cohort.history_words_.data() +
                          static_cast<size_t>(j * b + p) * wpr,
                      next_record, next_record + c);
        }
      }
    }
    next_record += c;
  }
  return cohort;
}

Status SyntheticCohort::AdvanceRound(const std::vector<int64_t>& census,
                                     const util::SubstreamRng& stream,
                                     util::ThreadPool* pool) {
  const uint64_t a = static_cast<uint64_t>(alphabet_);
  const uint64_t bins = num_overlaps_ * a;
  if (census.size() != bins) {
    return Status::InvalidArgument("census size must be A^k");
  }
  // Every child count is non-negative and each overlap's children split
  // exactly its group (checked without overflow: a stored census is
  // untrusted).
  for (uint64_t z = 0; z < num_overlaps_; ++z) {
    const int64_t group = GroupSize(z);
    int64_t assigned = 0;
    for (uint64_t c = 0; c < a; ++c) {
      const int64_t take = census[z * a + c];
      if (take < 0 || take > group - assigned) {
        return Status::InvalidArgument("census overruns overlap group " +
                                       std::to_string(z));
      }
      assigned += take;
    }
    if (assigned != group) {
      return Status::InvalidArgument(
          "census does not cover overlap group " + std::to_string(z) +
          ": assigned " + std::to_string(assigned) + " of " +
          std::to_string(group));
    }
  }

  // Counting-sort regroup plan: next-round overlap sizes are the column
  // sums of the census (children with the same low k-1 digits share an
  // overlap), prefix-summed into flat offsets.
  groups_next_.Reset(num_overlaps_);
  for (uint64_t child = 0; child < bins; ++child) {
    groups_next_.AddCount(child % num_overlaps_, census[child]);
  }
  groups_next_.BuildOffsets();

  // Pass 1 — the draws: for c = A-1 down to 1, child c takes a uniformly
  // chosen subset of the records still unassigned, put at the front of the
  // remaining span by a batched partial shuffle; child 0 absorbs the rest
  // without a draw. Overlap z draws only from its keyed substream
  // stream.Leaf(z) and permutes only its own member slice, so the groups
  // shard freely; a take of 0 or of everything left needs no draw at all.
  util::ShardedFor(
      pool, static_cast<int64_t>(num_overlaps_),
      [&](int /*shard*/, int64_t begin, int64_t end) {
        for (int64_t zi = begin; zi < end; ++zi) {
          const uint64_t z = static_cast<uint64_t>(zi);
          int64_t* members = groups_.group_data(z);
          const int64_t group = groups_.size(z);
          util::SubstreamRng group_stream = stream.Leaf(z);
          util::BatchSampler sampler(&group_stream);
          int64_t idx = 0;
          for (uint64_t c = a - 1; c >= 1; --c) {
            const int64_t take = census[z * a + c];
            const int64_t remaining = group - idx;
            if (take > 0 && take < remaining) {
              sampler.PartialShuffle(members + idx, remaining, take);
            }
            idx += take;
          }
        }
      });

  // Pass 2 — the scatter: destination groups interleave across source
  // overlaps, so the regroup stays serial, in overlap order. Each child is
  // one ranged append plus the writes of its symbol's set bits; child 0
  // needs no writes at all, the appended round is already zero-filled.
  const size_t b = static_cast<size_t>(symbol_bits_);
  const size_t col_base =
      static_cast<size_t>(rounds_) * b * words_per_round_;
  history_words_.resize(col_base + b * words_per_round_, 0);
  uint64_t* col = history_words_.data() + col_base;
  for (uint64_t z = 0; z < num_overlaps_; ++z) {
    const int64_t* members = groups_.group_data(z);
    int64_t idx = 0;
    for (uint64_t c = a; c-- > 0;) {
      const uint64_t child = z * a + c;
      const int64_t take = census[child];
      for (size_t p = 0; p < b; ++p) {
        if (((c >> p) & 1) == 0) continue;
        uint64_t* plane = col + p * words_per_round_;
        for (int64_t j = idx; j < idx + take; ++j) {
          plane[members[j] >> 6] |= uint64_t{1} << (members[j] & 63);
        }
      }
      groups_next_.PlaceRange(child % num_overlaps_, members + idx, take);
      idx += take;
    }
  }
  groups_.swap(groups_next_);
  pattern_count_ = census;
  ++rounds_;
  return Status::OK();
}

Result<data::LongitudinalDataset> SyntheticCohort::ToDataset(
    int64_t horizon) const {
  if (alphabet_ != 2) {
    return Status::FailedPrecondition(
        "only a binary cohort materializes as a dataset");
  }
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
