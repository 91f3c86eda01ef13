#include "core/categorical_synthesizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>

#include "core/limits.h"
#include "core/observe_shard.h"
#include "core/theory.h"
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

// v3, the derived-state binary stream/state_io.h encoding (v2 and the
// text v1 are refused by name). After the magic line:
//
//   options  horizon, k, A, rho, npad (resolved), beta_target, seed
//   state    t, n, releases, negative_clamps, remainder_draws, spent rho
//   windows  (n >= 0) n base-A window codes, CodeBytes(A^k) bytes each
//   (t >= k):
//   census   the clamped initial census p^k (A^k counts)
//   rounds   per slide round k+1..t: its census (A^k counts), then a bit
//            plane over the A^(k-1) overlaps marking the remainder draws
//   end tag  "catg-end"
//
// No cohort and no draw cursors: the cohort is stage 2 applied to the
// censuses with streams keyed by round number, which LoadCheckpoint
// re-runs (the remainder bits make it consume the same selection words).
constexpr char kFamily[] = "categorical";
constexpr uint64_t kEnd = stream::state_io::Tag("catg-end");

// Bytes per stored window code: codes are < num_bins <= 2^24.
size_t CodeBytes(uint64_t num_bins) {
  return (static_cast<size_t>(std::bit_width(num_bins - 1)) + 7) / 8;
}
}  // namespace

Result<uint64_t> CategoricalWindowSynthesizer::NumBins(int window_k,
                                                       int alphabet) {
  if (window_k < 1) {
    return Status::InvalidArgument("window k must be >= 1");
  }
  if (alphabet < 2) {
    return Status::InvalidArgument("alphabet size must be >= 2");
  }
  uint64_t bins = 1;
  for (int j = 0; j < window_k; ++j) {
    bins *= static_cast<uint64_t>(alphabet);
    if (bins > (uint64_t{1} << 24)) {
      return Status::InvalidArgument(
          "A^k exceeds 2^24 bins; reduce k or the alphabet");
    }
  }
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
      selection_root_(options.seed, util::substream::kSelection),
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
  return synth;
}

Status CategoricalWindowSynthesizer::ObserveRound(
    const std::vector<uint8_t>& symbols) {
  if (t_ >= options_.horizon) {
    return Status::OutOfRange("synthesizer past its horizon");
  }
  if (n_ < 0) {
    n_ = static_cast<int64_t>(symbols.size());
    user_window_.assign(symbols.size(), 0);
  } else if (symbols.size() != static_cast<size_t>(n_)) {
    return Status::InvalidArgument("round size changed");
  }
  // Validate before mutating: a rejected round must not slide any window.
  for (uint8_t s : symbols) {
    if (s >= options_.alphabet) {
      return Status::InvalidArgument("symbol out of alphabet range");
    }
  }
  // Stage 1, fused per-user base-A slide + histogram count (RNG-free and
  // index-disjoint; see core/observe_shard.h for the sharding branches and
  // the thread-count-invariance argument — the per-shard histogram gate
  // matters here because A^k bins can dwarf a small population).
  const uint64_t a = static_cast<uint64_t>(options_.alphabet);
  ShardedSlideAndCount(options_.pool, n_, num_bins_, &window_hist_,
                       &shard_hist_, [&](int64_t i) {
                         const size_t ii = static_cast<size_t>(i);
                         const uint64_t w =
                             (user_window_[ii] * a + symbols[ii]) % num_bins_;
                         user_window_[ii] = w;
                         return w;
                       });
  ++t_;
  if (t_ < options_.window_k) return Status::OK();
  if (t_ == options_.window_k) return InitialRelease();
  return SlideRelease();
}

std::vector<int64_t>& CategoricalWindowSynthesizer::NoisyPaddedHistogram() {
  // The exact histogram was counted by the fused observe pass; pad and
  // noise it here. Bin s of round t draws from the keyed substream
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
  child_order_.assign(static_cast<size_t>(options_.alphabet), 0);
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

void CategoricalWindowSynthesizer::DrawRemainderOrder(
    util::BatchSampler* sampler) {
  for (size_t c = 0; c < child_order_.size(); ++c) child_order_[c] = c;
  sampler->Shuffle(&child_order_);
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
  const size_t plane_words = (num_overlaps_ + 63) / 64;
  remainder_drew_.resize(remainder_drew_.size() + plane_words, 0);
  uint64_t* drew = remainder_drew_.data() + remainder_drew_.size() -
                   plane_words;
  std::vector<int64_t>& targets = targets_;
  // All stage-2 draws of round t (remainder children, promotion subsets)
  // come from the round's keyed selection substream, in overlap order.
  util::SubstreamRng selection =
      selection_root_.Derive(static_cast<uint64_t>(t_));
  util::BatchSampler sampler(&selection);

  // The census: the per-child assignment counts for every overlap depend
  // only on the noisy census and the current group sizes, not on which
  // record goes where, so they are all computed before AssignRound moves a
  // record. Remainder draws stay serial, in overlap order.
  for (uint64_t z = 0; z < num_overlaps_; ++z) {
    const int64_t group = groups_.size(z);
    // Children bins of overlap z: codes z*A + a'.
    int64_t noisy_sum = 0;
    for (int64_t c = 0; c < a; ++c) {
      noisy_sum += noisy[z * static_cast<uint64_t>(a) +
                         static_cast<uint64_t>(c)];
    }
    int64_t num = group - noisy_sum;  // A * Delta_z
    int64_t base = FloorDiv(num, a);
    int64_t rem = num - base * a;  // in [0, A)
    for (int64_t c = 0; c < a; ++c) {
      targets[static_cast<size_t>(c)] =
          noisy[z * static_cast<uint64_t>(a) + static_cast<uint64_t>(c)] +
          base;
    }
    if (rem != 0) {
      ++stats_.remainder_draws;
      drew[z >> 6] |= uint64_t{1} << (z & 63);
      // Give +1 to `rem` uniformly chosen distinct children.
      DrawRemainderOrder(&sampler);
      for (int64_t r = 0; r < rem; ++r) {
        ++targets[child_order_[static_cast<size_t>(r)]];
      }
    }
    // Water-fill any negatives back from the positive targets, preserving
    // the group sum (the categorical analogue of the pairwise clamp).
    // Afterwards the targets sum to the group size exactly: base/rem
    // construction makes the raw sum equal to `group`, and the fill moves
    // mass without creating or destroying it.
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
    for (int64_t c = 0; c < a; ++c) {
      new_counts[z * static_cast<uint64_t>(a) + static_cast<uint64_t>(c)] =
          targets[static_cast<size_t>(c)];
    }
  }
  return AssignRound(&sampler);
}

Status CategoricalWindowSynthesizer::AssignRound(util::BatchSampler* sampler) {
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

  // Assign and scatter. One zero-filled column append for round t_;
  // assigned symbols are written record-by-record. Instead of a full
  // shuffle per overlap group, each child takes a uniformly chosen subset
  // of the records still unassigned (a batched partial shuffle of the
  // remaining span); the final child absorbs the rest without a draw.
  const size_t m = static_cast<size_t>(num_records_);
  const size_t col_base = static_cast<size_t>(t_ - 1) * m;
  history_symbols_.resize(col_base + m, 0);
  uint8_t* col = history_symbols_.data() + col_base;

  for (uint64_t z = 0; z < num_overlaps_; ++z) {
    int64_t* members = groups_.group_data(z);
    const int64_t group = groups_.size(z);
    if (group == 0) continue;
    int64_t idx = 0;
    for (int64_t c = 0; c < a; ++c) {
      const uint64_t child =
          z * static_cast<uint64_t>(a) + static_cast<uint64_t>(c);
      const int64_t take = census[child];
      const int64_t remaining = group - idx;
      if (take > 0 && take < remaining) {
        sampler->PartialShuffle(members + idx, remaining, take);
      }
      for (int64_t j = 0; j < take; ++j) {
        const int64_t rec = members[idx + j];
        col[rec] = static_cast<uint8_t>(c);
        groups_next_.Place(child % num_overlaps_, rec);
      }
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
    const size_t width = CodeBytes(num_bins_);
    std::vector<uint8_t> codes(user_window_.size() * width);
    for (size_t i = 0; i < user_window_.size(); ++i) {
      std::memcpy(&codes[i * width], &user_window_[i], width);
    }
    sio::WriteArray(out, codes.data(), codes.size());
  }
  if (initialized_) {
    sio::WriteArray(out, release_targets_.data(), num_bins_);
    const size_t plane_words = (num_overlaps_ + 63) / 64;
    for (size_t r = 0; r * plane_words < remainder_drew_.size(); ++r) {
      sio::WriteArray(out, release_targets_.data() + (r + 1) * num_bins_,
                      num_bins_);
      sio::WriteArray(out, remainder_drew_.data() + r * plane_words,
                      plane_words);
    }
  }
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
  const uint64_t overlaps = synth->num_overlaps_;

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
    // Before round k a window holds only t symbols.
    uint64_t limit = 1;
    for (int64_t j = 0; j < std::min<int64_t>(t, k); ++j) limit *= alphabet;
    const size_t width = CodeBytes(bins);
    std::vector<uint8_t> codes;
    LONGDP_RETURN_NOT_OK(
        sio::ReadVector(in, static_cast<uint64_t>(n) * width, &codes));
    synth->user_window_.assign(static_cast<size_t>(n), 0);
    for (size_t i = 0; i < synth->user_window_.size(); ++i) {
      uint64_t w = 0;
      std::memcpy(&w, &codes[i * width], width);
      if (w >= limit) {
        return Status::InvalidArgument("window pattern out of range");
      }
      synth->user_window_[i] = w;
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
    std::vector<uint64_t> drew;
    for (int64_t tt = k + 1; tt <= t; ++tt) {
      LONGDP_RETURN_NOT_OK(sio::ReadVector(in, bins, &census));
      LONGDP_RETURN_NOT_OK(
          sio::ReadPlane(in, static_cast<int64_t>(overlaps), &drew));
      targets.insert(targets.end(), census.begin(), census.end());
      synth->remainder_drew_.insert(synth->remainder_drew_.end(),
                                    drew.begin(), drew.end());
      // Replay the round's remainder draws so the assignment draws start
      // at the same selection word they did live.
      util::SubstreamRng selection =
          synth->selection_root_.Derive(static_cast<uint64_t>(tt));
      util::BatchSampler sampler(&selection);
      for (uint64_t z = 0; z < overlaps; ++z) {
        if ((drew[z >> 6] >> (z & 63)) & 1) synth->DrawRemainderOrder(&sampler);
      }
      synth->t_ = tt;
      LONGDP_RETURN_NOT_OK(synth->AssignRound(&sampler));
    }
  }
  // Each set bit is one remainder draw of the live run; a flipped bit
  // would shift every later selection word and rebuild a different member
  // order.
  int64_t drawn = 0;
  for (uint64_t w : synth->remainder_drew_) drawn += std::popcount(w);
  if (drawn != stats.remainder_draws) {
    return Status::InvalidArgument(
        "categorical checkpoint remainder bits inconsistent with its "
        "remainder draws");
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
  return static_cast<double>(counts_[s] - npad_) / static_cast<double>(n_);
}

}  // namespace core
}  // namespace longdp
