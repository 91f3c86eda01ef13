#include "core/categorical_synthesizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>

#include "core/limits.h"
#include "core/plane_histogram.h"
#include "core/theory.h"
#include "data/round_view.h"
#include "stream/state_io.h"
#include "util/batch_sampler.h"
#include "util/thread_pool.h"

namespace longdp {
namespace core {

namespace {
// Floor division for possibly-negative numerators.
int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b) != 0 && ((a < 0) != (b < 0))) --q;
  return q;
}

// v4, the derived-state binary stream/state_io.h encoding (v1-v3 are
// refused by name). After the magic line:
//
//   options  horizon, k, A, rho, npad (resolved), beta_target, seed
//   state    t, n, releases, negative_clamps, remainder_draws, spent rho
//   windows  (n >= 0) the k * b window planes of n lanes, newest round
//            first and bit 0 first within a round
//   (t >= k):
//   census   the clamped initial census p^k (A^k counts)
//   rounds   the census of each slide round k+1..t (A^k counts)
//   end tag  "catg-end"
//
// No cohort and no draw cursors: the cohort is stage 2 applied to the
// censuses with streams keyed by round and overlap, which LoadCheckpoint
// re-runs. The assignment streams do not depend on the remainder draws,
// so the rebuild needs nothing else.
constexpr char kFamily[] = "categorical";
constexpr uint64_t kEnd = stream::state_io::Tag("catg-end");

/// code_bin_ entry of a binary window code with a digit >= A.
constexpr uint32_t kNoBin = UINT32_MAX;

/// b, the bits of one symbol.
int SymbolBits(int alphabet) {
  return std::bit_width(static_cast<unsigned>(alphabet - 1));
}
}  // namespace

Result<uint64_t> CategoricalWindowSynthesizer::NumBins(int window_k,
                                                       int alphabet) {
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

CategoricalWindowSynthesizer::CategoricalWindowSynthesizer(
    const Options& options, int64_t npad, double sigma2, double rho_per_step)
    : options_(options),
      npad_(npad),
      sigma2_(sigma2),
      rho_per_step_(rho_per_step),
      accountant_(options.rho),
      noise_root_(options.seed, util::substream::kHistogramNoise),
      rounding_root_(options.seed, util::substream::kRounding),
      cohort_root_(options.seed, util::substream::kCohort),
      noise_sampler_(dp::NoiseSampler::Gaussian(sigma2)) {}

Result<std::unique_ptr<CategoricalWindowSynthesizer>>
CategoricalWindowSynthesizer::Create(const Options& options) {
  LONGDP_ASSIGN_OR_RETURN(uint64_t bins,
                          NumBins(options.window_k, options.alphabet));
  if (options.horizon < options.window_k) {
    return Status::InvalidArgument("horizon T must be >= window k");
  }
  LONGDP_RETURN_NOT_OK(CheckHorizonCap(options.horizon));
  LONGDP_RETURN_NOT_OK(CheckBudget(options.rho));
  double steps = static_cast<double>(options.horizon - options.window_k + 1);
  double sigma2 = std::isinf(options.rho) ? 0.0 : steps / (2.0 * options.rho);
  int64_t npad = options.npad;
  if (npad < 0) {
    if (!(options.beta_target > 0.0) || options.beta_target >= 1.0) {
      return Status::InvalidArgument("beta_target must be in (0,1)");
    }
    if (std::isinf(options.rho)) {
      npad = 0;
    } else {
      // Generalized Theorem 3.2 padding: 2^k -> A^k inside the log.
      double lead = std::sqrt(steps / options.rho) + 1.0 / std::sqrt(2.0);
      double bound = lead * std::sqrt(std::log(static_cast<double>(bins) *
                                               steps /
                                               options.beta_target));
      npad = static_cast<int64_t>(std::ceil(bound));
    }
  }
  double rho_per_step = std::isinf(options.rho) ? 0.0 : options.rho / steps;
  auto synth = std::unique_ptr<CategoricalWindowSynthesizer>(
      new CategoricalWindowSynthesizer(options, npad, sigma2, rho_per_step));
  synth->num_bins_ = bins;
  synth->num_overlaps_ = bins / static_cast<uint64_t>(options.alphabet);
  // The binary-code -> base-A bin map: digit j (the symbol from j rounds
  // ago) sits in bits [j*b, (j+1)*b) and weighs A^j, so the oldest symbol
  // is the most significant base-A digit.
  const int b = SymbolBits(options.alphabet);
  synth->symbol_bits_ = b;
  const uint32_t a = static_cast<uint32_t>(options.alphabet);
  synth->code_bin_.assign(size_t{1} << (options.window_k * b), kNoBin);
  for (size_t code = 0; code < synth->code_bin_.size(); ++code) {
    uint32_t bin = 0;
    uint32_t weight = 1;
    bool valid = true;
    for (int j = 0; j < options.window_k && valid; ++j) {
      const uint32_t digit =
          static_cast<uint32_t>(code >> (j * b)) & ((1u << b) - 1);
      valid = digit < a;
      bin += digit * weight;
      weight *= a;
    }
    if (valid) synth->code_bin_[code] = bin;
  }
  return synth;
}

Status CategoricalWindowSynthesizer::ObserveRound(
    const std::vector<uint8_t>& symbols) {
  if (t_ >= options_.horizon) {
    return Status::OutOfRange("synthesizer past its horizon");
  }
  const int64_t n = static_cast<int64_t>(symbols.size());
  if (n_ >= 0 && n != n_) {
    return Status::InvalidArgument(
        "round size changed; the population is fixed over the horizon");
  }
  // Validate before mutating: a rejected round, the first one included,
  // must not fix the population or slide any window.
  LONGDP_RETURN_NOT_OK(
      data::CheckSymbols(symbols.data(), n, options_.alphabet));
  const int k = options_.window_k;
  const int b = symbol_bits_;
  if (n_ < 0) {
    n_ = n;
    window_planes_.assign(static_cast<size_t>(k * b),
                          std::vector<uint64_t>(
                              static_cast<size_t>((n + 63) >> 6), 0));
    plane_head_ = 0;
  }
  // Stage 1, the per-user slide, as in FixedWindowSynthesizer: rotate the
  // ring head (the expiring oldest slot becomes the newest) and slice the
  // round into that slot's b planes. Warm-up rounds skip the histogram.
  plane_head_ = (plane_head_ + k - 1) % k;
  uint64_t* slot[8];
  for (int p = 0; p < b; ++p) {
    slot[p] =
        window_planes_[static_cast<size_t>(plane_head_ * b + p)].data();
  }
  data::SliceSymbols(symbols.data(), n, b, slot);
  ++t_;
  if (t_ < k) return Status::OK();
  // Fold the binary codes into the A^k bins; lanes never hold a digit >= A
  // (checked at the edge and by LoadCheckpoint).
  CountPlaneHistogram();
  window_hist_.assign(num_bins_, 0);
  for (size_t code = 0; code < code_bin_.size(); ++code) {
    if (code_bin_[code] != kNoBin) {
      window_hist_[code_bin_[code]] += plane_hist_[code];
    }
  }
  if (t_ == k) return InitialRelease();
  return SlideRelease();
}

void CategoricalWindowSynthesizer::CountPlaneHistogram() {
  const int k = options_.window_k;
  const int b = symbol_bits_;
  const uint64_t* planes[kMaxPlanes];
  for (int j = 0; j < k; ++j) {
    const int slot = (plane_head_ + j) % k;
    for (int p = 0; p < b; ++p) {
      planes[j * b + p] =
          window_planes_[static_cast<size_t>(slot * b + p)].data();
    }
  }
  ShardedPlaneHistogram(options_.pool, planes, k * b,
                        window_planes_[0].size(), n_, &plane_hist_,
                        &shard_hist_);
}

std::vector<int64_t>& CategoricalWindowSynthesizer::NoisyPaddedHistogram() {
  // The exact histogram was counted from the plane ring; pad and noise it
  // here. Bin s of round t draws from the keyed substream
  // (seed, kHistogramNoise, t, s), so the per-bin draws shard freely and
  // the noise vector is identical at any shard or thread count.
  noisy_scratch_ = window_hist_;
  noise_scratch_.resize(noisy_scratch_.size());
  const util::SubstreamRng round_noise =
      noise_root_.Derive(static_cast<uint64_t>(t_));
  noise_sampler_.FillLeaves(round_noise, noise_scratch_.size(),
                            noise_scratch_.data(), options_.pool);
  for (size_t s = 0; s < noisy_scratch_.size(); ++s) {
    noisy_scratch_[s] += npad_ + noise_scratch_[s];
  }
  return noisy_scratch_;
}

Status CategoricalWindowSynthesizer::InitialRelease() {
  LONGDP_RETURN_NOT_OK(accountant_.Charge(
      rho_per_step_, "categorical histogram t=" + std::to_string(t_)));
  std::vector<int64_t>& noisy = NoisyPaddedHistogram();
  ++stats_.releases;
  LONGDP_RETURN_NOT_OK(ClampCensus(&noisy, &stats_.negative_clamps));
  release_targets_.assign(noisy.begin(), noisy.end());
  return SeedCohort(options_.horizon);
}

Status CategoricalWindowSynthesizer::SeedCohort(int64_t reserve_rounds) {
  const int64_t* census = release_targets_.data();
  counts_.assign(census, census + num_bins_);
  // Counting-sort build of the flat overlap groups: per-overlap totals are
  // one pass over the census, then records scatter into place.
  groups_.Reset(num_overlaps_);
  for (uint64_t s = 0; s < num_bins_; ++s) {
    groups_.AddCount(s % num_overlaps_, census[s]);
  }
  groups_.BuildOffsets();
  groups_next_.Reset(num_overlaps_);
  targets_.assign(static_cast<size_t>(options_.alphabet), 0);
  child_order_.resize(static_cast<size_t>(options_.alphabet));
  num_records_ = 0;
  for (uint64_t s = 0; s < num_bins_; ++s) num_records_ += census[s];
  const int k = options_.window_k;
  const uint64_t a = static_cast<uint64_t>(options_.alphabet);
  const size_t m = static_cast<size_t>(num_records_);
  history_symbols_.clear();
  history_symbols_.reserve(m * static_cast<size_t>(reserve_rounds));
  history_symbols_.resize(m * static_cast<size_t>(k), 0);
  // Pattern s seeds census[s] consecutive record ids, so each group
  // placement is one sequence append and each history column one run fill.
  int64_t next_record = 0;
  for (uint64_t s = 0; s < num_bins_; ++s) {
    const int64_t count = census[s];
    if (count == 0) continue;
    groups_.PlaceSequence(s % num_overlaps_, next_record, count);
    uint64_t code = s;
    for (int j = k - 1; j >= 0; --j) {
      std::memset(&history_symbols_[static_cast<size_t>(j) * m +
                                    static_cast<size_t>(next_record)],
                  static_cast<int>(code % a), static_cast<size_t>(count));
      code /= a;
    }
    next_record += count;
  }
  initialized_ = true;
  return Status::OK();
}

Status CategoricalWindowSynthesizer::SlideRelease() {
  LONGDP_RETURN_NOT_OK(accountant_.Charge(
      rho_per_step_, "categorical histogram t=" + std::to_string(t_)));
  std::vector<int64_t>& noisy = NoisyPaddedHistogram();
  ++stats_.releases;

  const int64_t a = options_.alphabet;
  release_targets_.resize(release_targets_.size() + num_bins_);
  int64_t* new_counts =
      release_targets_.data() + release_targets_.size() - num_bins_;
  std::vector<int64_t>& targets = targets_;
  // Remainder children draw sequentially, in z order, from this round's
  // keyed rounding substream.
  util::SubstreamRng rounding =
      rounding_root_.Derive(static_cast<uint64_t>(t_));
  util::BatchSampler sampler(&rounding);

  // The census: the per-child assignment counts for every overlap depend
  // only on the noisy census and the current group sizes, not on which
  // record goes where, so they are all computed before AssignRound moves a
  // record.
  for (uint64_t z = 0; z < num_overlaps_; ++z) {
    const int64_t group = groups_.size(z);
    // Children bins of overlap z: codes z*A + a'.
    const int64_t* child_noisy = noisy.data() + z * static_cast<uint64_t>(a);
    int64_t noisy_sum = 0;
    for (int64_t c = 0; c < a; ++c) noisy_sum += child_noisy[c];
    int64_t num = group - noisy_sum;  // A * Delta_z
    int64_t base = FloorDiv(num, a);
    int64_t rem = num - base * a;  // in [0, A)
    for (int64_t c = 0; c < a; ++c) {
      targets[static_cast<size_t>(c)] = child_noisy[c] + base;
    }
    if (rem != 0) {
      ++stats_.remainder_draws;
      // Give +1 to `rem` uniformly chosen distinct children: the front of
      // a partial shuffle of A-1..0. At A = 2 that is one Bounded(2) draw,
      // the word's top bit, picking child 0 exactly when
      // FixedWindowSynthesizer's rounding.Coin() rounds p_z0 up.
      for (size_t c = 0; c < child_order_.size(); ++c) {
        child_order_[c] = child_order_.size() - 1 - c;
      }
      sampler.PartialShuffle(child_order_.data(), a, rem);
      for (int64_t r = 0; r < rem; ++r) {
        ++targets[child_order_[static_cast<size_t>(r)]];
      }
    }
    // Water-fill any negatives back from the positive targets, preserving
    // the group sum (the categorical analogue of the pairwise clamp, which
    // it equals at A = 2). Afterwards the targets sum to the group size
    // exactly: base/rem construction makes the raw sum equal to `group`,
    // and the fill moves mass without creating or destroying it.
    for (size_t c = 0; c < targets.size(); ++c) {
      if (targets[c] < 0) {
        int64_t deficit = -targets[c];
        targets[c] = 0;
        ++stats_.negative_clamps;
        for (size_t d = 0; d < targets.size() && deficit > 0; ++d) {
          if (targets[d] > 0) {
            int64_t take = std::min(targets[d], deficit);
            targets[d] -= take;
            deficit -= take;
          }
        }
      }
    }
    std::copy(targets.begin(), targets.end(),
              new_counts + z * static_cast<uint64_t>(a));
  }
  return AssignRound(t_);
}

Status CategoricalWindowSynthesizer::AssignRound(int64_t t) {
  const int64_t a = options_.alphabet;
  const int64_t* census =
      release_targets_.data() + release_targets_.size() - num_bins_;
  // Every child count is non-negative and each overlap's children split
  // exactly its group (checked without overflow: a stored census is
  // untrusted).
  for (uint64_t z = 0; z < num_overlaps_; ++z) {
    const int64_t group = groups_.size(z);
    int64_t assigned = 0;
    for (int64_t c = 0; c < a; ++c) {
      const int64_t take = census[z * static_cast<uint64_t>(a) +
                                  static_cast<uint64_t>(c)];
      if (take < 0 || take > group - assigned) {
        return Status::InvalidArgument(
            "categorical census overruns overlap group " + std::to_string(z));
      }
      assigned += take;
    }
    if (assigned != group) {
      return Status::InvalidArgument(
          "categorical census does not cover overlap group " +
          std::to_string(z) + ": assigned " + std::to_string(assigned) +
          " of " + std::to_string(group));
    }
  }

  // Counting-sort regroup plan: next-round overlap sizes are the column
  // sums of the census (children with the same low k-1 digits share an
  // overlap), prefix-summed into flat offsets.
  groups_next_.Reset(num_overlaps_);
  for (uint64_t child = 0; child < num_bins_; ++child) {
    groups_next_.AddCount(child % num_overlaps_, census[child]);
  }
  groups_next_.BuildOffsets();

  // Pass 1, the draws, as SyntheticCohort::AdvanceRound: for c = A-1 down
  // to 1, child c takes a uniformly chosen subset of the records still
  // unassigned, put at the front of the remaining span by a partial
  // shuffle; child 0 absorbs the rest without a draw. Overlap z draws only
  // from stream.Leaf(z) and permutes only its own members, so the groups
  // shard freely.
  const util::SubstreamRng stream =
      cohort_root_.Derive(static_cast<uint64_t>(t));
  util::ShardedFor(
      options_.pool, static_cast<int64_t>(num_overlaps_),
      [&](int /*shard*/, int64_t begin, int64_t end) {
        for (int64_t zi = begin; zi < end; ++zi) {
          const uint64_t z = static_cast<uint64_t>(zi);
          int64_t* members = groups_.group_data(z);
          const int64_t group = groups_.size(z);
          util::SubstreamRng group_stream = stream.Leaf(z);
          util::BatchSampler sampler(&group_stream);
          int64_t idx = 0;
          for (int64_t c = a - 1; c >= 1; --c) {
            const int64_t take = census[z * static_cast<uint64_t>(a) +
                                        static_cast<uint64_t>(c)];
            const int64_t remaining = group - idx;
            if (take > 0 && take < remaining) {
              sampler.PartialShuffle(members + idx, remaining, take);
            }
            idx += take;
          }
        }
      });

  // Pass 2, the scatter: destination groups interleave across source
  // overlaps, so the regroup stays serial, in overlap order. Each child is
  // one ranged append, and only non-zero symbols are written: the appended
  // column is zero-filled.
  const size_t m = static_cast<size_t>(num_records_);
  const size_t col_base = static_cast<size_t>(t - 1) * m;
  history_symbols_.resize(col_base + m, 0);
  uint8_t* col = history_symbols_.data() + col_base;
  for (uint64_t z = 0; z < num_overlaps_; ++z) {
    const int64_t* members = groups_.group_data(z);
    int64_t idx = 0;
    for (int64_t c = a - 1; c >= 0; --c) {
      const uint64_t child =
          z * static_cast<uint64_t>(a) + static_cast<uint64_t>(c);
      const int64_t take = census[child];
      if (c != 0) {
        for (int64_t j = 0; j < take; ++j) {
          col[members[idx + j]] = static_cast<uint8_t>(c);
        }
      }
      groups_next_.PlaceRange(child % num_overlaps_, members + idx, take);
      idx += take;
    }
  }
  groups_.swap(groups_next_);
  counts_.assign(census, census + num_bins_);
  return Status::OK();
}

Status CategoricalWindowSynthesizer::SaveCheckpoint(std::ostream& out) const {
  namespace sio = stream::state_io;
  if (n_ > sio::kMaxRecords || npad_ > sio::kMaxRecords) {
    return Status::InvalidArgument(
        "populations or padding of 2^32 or more cannot be checkpointed");
  }
  if (num_records_ >
      theory::MaxSyntheticRecords(n_, num_bins_, npad_, sigma2_)) {
    return Status::InvalidArgument(
        "synthetic cohort exceeds the checkpoint record bound");
  }
  sio::WriteMagic(out, kFamily, kCheckpointVersion);
  sio::WriteInt(out, options_.horizon);
  sio::WriteInt(out, options_.window_k);
  sio::WriteInt(out, options_.alphabet);
  sio::WriteDouble(out, options_.rho);
  sio::WriteInt(out, npad_);
  sio::WriteDouble(out, options_.beta_target);
  sio::WriteU64(out, options_.seed);
  sio::WriteInt(out, t_);
  sio::WriteInt(out, n_);
  sio::WriteInt(out, stats_.releases);
  sio::WriteInt(out, stats_.negative_clamps);
  sio::WriteInt(out, stats_.remainder_draws);
  sio::WriteDouble(out, accountant_.spent());
  if (n_ >= 0) {
    // Logical order, so the bytes do not depend on the ring head.
    const int k = options_.window_k;
    for (int j = 0; j < k; ++j) {
      const int slot = (plane_head_ + j) % k;
      for (int p = 0; p < symbol_bits_; ++p) {
        sio::WritePlane(
            out, window_planes_[static_cast<size_t>(slot * symbol_bits_ + p)]);
      }
    }
  }
  sio::WriteArray(out, release_targets_.data(), release_targets_.size());
  sio::WriteTag(out, kEnd);
  return out.good() ? Status::OK()
                    : Status::IOError("checkpoint write failed");
}

Result<std::unique_ptr<CategoricalWindowSynthesizer>>
CategoricalWindowSynthesizer::LoadCheckpoint(std::istream& in) {
  namespace sio = stream::state_io;
  LONGDP_RETURN_NOT_OK(sio::ExpectMagic(in, kFamily, kCheckpointVersion));
  Options options;
  LONGDP_ASSIGN_OR_RETURN(options.horizon, sio::Read<int64_t>(in));
  LONGDP_ASSIGN_OR_RETURN(const int64_t window_k,
                          sio::ReadIntIn(in, 1, 64, "window k"));
  options.window_k = static_cast<int>(window_k);
  LONGDP_ASSIGN_OR_RETURN(const int64_t alphabet,
                          sio::ReadIntIn(in, 2, 256, "alphabet size"));
  options.alphabet = static_cast<int>(alphabet);
  LONGDP_ASSIGN_OR_RETURN(options.rho, sio::Read<double>(in));
  // The resolved padding, never re-derived from beta_target on reload.
  LONGDP_ASSIGN_OR_RETURN(options.npad,
                          sio::ReadIntIn(in, 0, sio::kMaxRecords, "npad"));
  LONGDP_ASSIGN_OR_RETURN(options.beta_target, sio::Read<double>(in));
  LONGDP_ASSIGN_OR_RETURN(options.seed, sio::Read<uint64_t>(in));
  // Create rejects NaN or non-positive rho and validates k and A.
  LONGDP_ASSIGN_OR_RETURN(auto synth, Create(options));
  const int k = options.window_k;
  const uint64_t bins = synth->num_bins_;

  LONGDP_ASSIGN_OR_RETURN(const int64_t t,
                          sio::ReadIntIn(in, 0, options.horizon, "round"));
  LONGDP_ASSIGN_OR_RETURN(
      const int64_t n, sio::ReadIntIn(in, -1, sio::kMaxRecords, "population"));
  Stats stats;
  LONGDP_ASSIGN_OR_RETURN(
      stats.releases, sio::ReadIntIn(in, 0, options.horizon, "releases"));
  LONGDP_ASSIGN_OR_RETURN(stats.negative_clamps,
                          sio::ReadIntIn(in, 0, INT64_MAX, "clamp count"));
  LONGDP_ASSIGN_OR_RETURN(stats.remainder_draws,
                          sio::ReadIntIn(in, 0, INT64_MAX, "remainder draws"));
  LONGDP_ASSIGN_OR_RETURN(const double spent, sio::Read<double>(in));
  if ((t == 0) != (n < 0)) {
    return Status::InvalidArgument(
        "categorical checkpoint population inconsistent with t");
  }
  if (stats.releases != std::max<int64_t>(0, t - k + 1)) {
    return Status::InvalidArgument(
        "categorical checkpoint release count inconsistent with t");
  }
  // A NaN, negative or infinite spend would reset or disable the budget
  // the restored run still has to honor (and -0.0 would re-save as 0.0).
  if (std::signbit(spent) || !std::isfinite(spent)) {
    return Status::InvalidArgument("checkpoint spent budget is not finite");
  }
  if (spent > 0.0) {
    LONGDP_RETURN_NOT_OK(
        synth->accountant_.Charge(spent, "restored-checkpoint"));
  }
  if (n >= 0) {
    const int b = synth->symbol_bits_;
    synth->window_planes_.resize(static_cast<size_t>(k * b));
    for (int j = 0; j < k; ++j) {
      for (int p = 0; p < b; ++p) {
        auto& plane = synth->window_planes_[static_cast<size_t>(j * b + p)];
        LONGDP_RETURN_NOT_OK(sio::ReadPlane(in, n, &plane));
        // Planes older than round 1 were never written.
        if (j >= t && std::any_of(plane.begin(), plane.end(),
                                  [](uint64_t w) { return w != 0; })) {
          return Status::InvalidArgument(
              "categorical checkpoint has window symbols before round 1");
        }
      }
    }
    synth->plane_head_ = 0;
    synth->n_ = n;
    // Every lane's digits must lie in the alphabet: a binary code with a
    // digit >= A has no bin to fold into.
    synth->CountPlaneHistogram();
    for (size_t code = 0; code < synth->code_bin_.size(); ++code) {
      if (synth->code_bin_[code] == kNoBin && synth->plane_hist_[code] != 0) {
        return Status::InvalidArgument(
            "categorical checkpoint window holds a symbol outside the "
            "alphabet");
      }
    }
  }
  if (t >= k) {
    // The initial census seeds every record, so its total is bounded
    // before the cohort is allocated; each later census is checked against
    // the group sizes before its column is.
    std::vector<int64_t>& targets = synth->release_targets_;
    LONGDP_RETURN_NOT_OK(sio::ReadBoundedCounts(
        in, bins,
        theory::MaxSyntheticRecords(n, bins, synth->npad_, synth->sigma2_),
        &targets, "categorical checkpoint census"));
    // Capacity only for the seeded rounds: t is not yet backed by the
    // rounds' bytes, so it must not size an allocation.
    LONGDP_RETURN_NOT_OK(synth->SeedCohort(k));
    std::vector<int64_t> census;
    for (int64_t tt = k + 1; tt <= t; ++tt) {
      LONGDP_RETURN_NOT_OK(sio::ReadVector(in, bins, &census));
      targets.insert(targets.end(), census.begin(), census.end());
      LONGDP_RETURN_NOT_OK(synth->AssignRound(tt));
    }
  }
  LONGDP_RETURN_NOT_OK(sio::ExpectTag(in, kEnd, "categorical checkpoint"));
  synth->t_ = t;
  synth->n_ = n;
  synth->stats_ = stats;
  return synth;
}

Result<double> CategoricalWindowSynthesizer::DebiasedBinFraction(
    uint64_t s) const {
  if (!initialized_) {
    return Status::FailedPrecondition("no release yet");
  }
  if (s >= num_bins_) {
    return Status::OutOfRange("pattern code out of range");
  }
  const int64_t true_n = n_ > 0 ? n_ : 1;
  return static_cast<double>(counts_[s] - npad_) /
         static_cast<double>(true_n);
}

}  // namespace core
}  // namespace longdp
