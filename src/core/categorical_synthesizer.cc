#include "core/categorical_synthesizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>

#include "core/observe_shard.h"
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

// v2, the binary stream/state_io.h encoding (the text v1 is refused by
// name). After the magic line:
//
//   options  horizon, k, A, rho, npad (resolved), beta_target, seed
//   state    t, n, m (synthetic records), releases, negative_clamps,
//            remainder_draws, spent rho
//   windows  (n >= 0) n base-A window codes, CodeBytes(A^k) bytes each
//   (t >= k):
//   counts   the A^k histogram p_s
//   groups   the A^(k-1) overlap group sizes, then m uint32 record ids
//            (group 0's members in current order, then group 1's, ...)
//   history  t columns of m symbol bytes
//   end tag  "catg-end"
//
// No draw cursors: all draws are keyed by round number.
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
  if (!(options.rho > 0.0)) {
    return Status::InvalidArgument("rho must be > 0");
  }
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
  const bool releasing = (t_ + 1 >= options_.window_k);
  ShardedSlideAndCount(
      options_.pool, n_, releasing, num_bins_, &window_hist_, &shard_hist_,
      [&](int64_t i) {
        const size_t ii = static_cast<size_t>(i);
        const uint64_t w = (user_window_[ii] * a + symbols[ii]) % num_bins_;
        user_window_[ii] = w;
        return w;
      },
      [&](int64_t i) { return user_window_[static_cast<size_t>(i)]; });
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
  for (auto& c : noisy) {
    if (c < 0) {
      c = 0;
      ++stats_.negative_clamps;
    }
  }
  counts_ = noisy;
  // Counting-sort build of the flat overlap groups: per-overlap totals are
  // one pass over the noisy census, then records scatter into place.
  groups_.Reset(num_overlaps_);
  for (uint64_t s = 0; s < num_bins_; ++s) {
    groups_.AddCount(s % num_overlaps_, noisy[s]);
  }
  groups_.BuildOffsets();
  groups_next_.Reset(num_overlaps_);
  counts_scratch_.assign(num_bins_, 0);
  targets_.assign(static_cast<size_t>(options_.alphabet), 0);
  child_order_.assign(static_cast<size_t>(options_.alphabet), 0);
  num_records_ = 0;
  for (int64_t c : noisy) num_records_ += c;
  const int k = options_.window_k;
  const uint64_t a = static_cast<uint64_t>(options_.alphabet);
  const size_t m = static_cast<size_t>(num_records_);
  history_symbols_.clear();
  history_symbols_.reserve(m * static_cast<size_t>(options_.horizon));
  history_symbols_.resize(m * static_cast<size_t>(k), 0);
  int64_t next_record = 0;
  std::vector<uint8_t> digits(static_cast<size_t>(k));
  for (uint64_t s = 0; s < num_bins_; ++s) {
    uint64_t code = s;
    for (int j = k - 1; j >= 0; --j) {
      digits[static_cast<size_t>(j)] = static_cast<uint8_t>(code % a);
      code /= a;
    }
    uint64_t overlap = s % num_overlaps_;
    for (int64_t c = 0; c < noisy[s]; ++c) {
      const size_t rec = static_cast<size_t>(next_record++);
      groups_.Place(overlap, static_cast<int64_t>(rec));
      for (int j = 0; j < k; ++j) {
        history_symbols_[static_cast<size_t>(j) * m + rec] =
            digits[static_cast<size_t>(j)];
      }
    }
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
  std::vector<int64_t>& new_counts = counts_scratch_;
  new_counts.assign(num_bins_, 0);
  std::vector<int64_t>& targets = targets_;
  std::vector<size_t>& child_order = child_order_;
  // All stage-2 draws of round t (remainder children, promotion subsets)
  // come from the round's keyed selection substream, in overlap order.
  util::SubstreamRng selection =
      selection_root_.Derive(static_cast<uint64_t>(t_));
  util::BatchSampler sampler(&selection);

  // Pass 1 — targets: the per-child assignment counts for every overlap
  // depend only on the noisy census and the current group sizes, not on
  // which record goes where. Computing them all up front makes the next-
  // round histogram (and so every next-round overlap group size) known
  // before a single record moves, which is what lets the regroup below be
  // a counting sort. Remainder draws stay serial, in overlap order.
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
      // Give +1 to `rem` uniformly chosen distinct children.
      for (size_t c = 0; c < child_order.size(); ++c) child_order[c] = c;
      sampler.Shuffle(&child_order);
      for (int64_t r = 0; r < rem; ++r) {
        ++targets[child_order[static_cast<size_t>(r)]];
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

  // Pass 2 — counting-sort regroup plan: next-round overlap sizes are the
  // column sums of the target matrix (children with the same low k-1
  // digits share an overlap), prefix-summed into flat offsets.
  groups_next_.Reset(num_overlaps_);
  for (uint64_t child = 0; child < num_bins_; ++child) {
    groups_next_.AddCount(child % num_overlaps_, new_counts[child]);
  }
  groups_next_.BuildOffsets();

  // Pass 3 — assign and scatter. One zero-filled column append for round
  // t_; promoted symbols are written record-by-record. Instead of a full
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
      const int64_t take = new_counts[child];
      const int64_t remaining = group - idx;
      if (take > remaining) {
        return Status::Internal(
            "categorical slide target overruns overlap group " +
            std::to_string(z));
      }
      if (take > 0 && take < remaining) {
        sampler.PartialShuffle(members + idx, remaining, take);
      }
      for (int64_t j = 0; j < take; ++j) {
        const int64_t rec = members[idx + j];
        col[rec] = static_cast<uint8_t>(c);
        groups_next_.Place(child % num_overlaps_, rec);
      }
      idx += take;
    }
    if (idx != group) {
      return Status::Internal(
          "categorical slide targets do not cover overlap group " +
          std::to_string(z) + ": assigned " + std::to_string(idx) + " of " +
          std::to_string(group));
    }
  }
  groups_.swap(groups_next_);
  counts_.swap(new_counts);
  return Status::OK();
}

Status CategoricalWindowSynthesizer::SaveCheckpoint(std::ostream& out) const {
  namespace sio = stream::state_io;
  if (n_ > sio::kMaxRecords || num_records_ > sio::kMaxRecords) {
    return Status::InvalidArgument(
        "populations of 2^32 or more cannot be checkpointed");
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
  sio::WriteInt(out, num_records_);
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
    sio::WriteArray(out, counts_.data(), counts_.size());
    const size_t m = static_cast<size_t>(num_records_);
    std::vector<int64_t> sizes(static_cast<size_t>(num_overlaps_));
    for (size_t z = 0; z < sizes.size(); ++z) sizes[z] = groups_.size(z);
    sio::WriteArray(out, sizes.data(), sizes.size());
    // The overlap groups' exact member ORDER is load-bearing: the slide's
    // partial shuffles permute it, so a resumed run must see the same
    // member sequence the uninterrupted run would.
    std::vector<uint32_t> members(m);
    const int64_t* all = groups_.group_data(0);
    for (size_t i = 0; i < m; ++i) members[i] = static_cast<uint32_t>(all[i]);
    sio::WriteArray(out, members.data(), m);
    sio::WriteArray(out, history_symbols_.data(),
                    m * static_cast<size_t>(t_));
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
                          sio::ReadIntIn(in, 0, INT64_MAX, "npad"));
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
  LONGDP_ASSIGN_OR_RETURN(
      const int64_t num_records,
      sio::ReadIntIn(in, 0, sio::kMaxRecords, "synthetic record count"));
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
  const bool inited = t >= k;
  if (stats.releases != std::max<int64_t>(0, t - k + 1)) {
    return Status::InvalidArgument(
        "categorical checkpoint release count inconsistent with t");
  }
  if (!inited && num_records != 0) {
    return Status::InvalidArgument(
        "categorical checkpoint has records before the first release");
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
  if (inited) {
    const size_t m = static_cast<size_t>(num_records);
    std::vector<int64_t>& counts = synth->counts_;
    LONGDP_RETURN_NOT_OK(sio::ReadVector(in, bins, &counts));
    int64_t total = 0;
    for (int64_t c : counts) {
      if (c < 0 || c > num_records) {
        return Status::InvalidArgument("categorical histogram bin out of range");
      }
      total += c;
    }
    if (total != num_records) {
      return Status::InvalidArgument(
          "categorical histogram does not sum to the record count");
    }
    // Each group's size is its overlap marginal of the histogram (the
    // group of pattern s is its low k-1 digits, s mod A^(k-1)).
    std::vector<int64_t> sizes;
    LONGDP_RETURN_NOT_OK(sio::ReadVector(in, overlaps, &sizes));
    std::vector<int64_t> marginal(static_cast<size_t>(overlaps), 0);
    for (uint64_t s = 0; s < bins; ++s) marginal[s % overlaps] += counts[s];
    if (sizes != marginal) {
      return Status::InvalidArgument(
          "overlap group sizes inconsistent with the histogram");
    }
    std::vector<uint32_t> members;
    LONGDP_RETURN_NOT_OK(sio::ReadVector(in, m, &members));
    if (t > 0 && m > 0 &&
        static_cast<uint64_t>(t) > UINT64_MAX / static_cast<uint64_t>(m)) {
      return Status::InvalidArgument("categorical history size overflows");
    }
    LONGDP_RETURN_NOT_OK(sio::ReadVector(
        in, static_cast<uint64_t>(m) * static_cast<uint64_t>(t),
        &synth->history_symbols_));
    uint8_t max_symbol = 0;
    for (uint8_t sym : synth->history_symbols_) {
      max_symbol = std::max(max_symbol, sym);
    }
    if (max_symbol >= alphabet) {
      return Status::InvalidArgument("history symbol out of range");
    }
    // Each record's current window code from its last k symbols; the
    // histogram must count exactly those codes.
    std::vector<uint32_t> code(m, 0);
    for (int64_t tt = t - k; tt < t; ++tt) {
      const uint8_t* col =
          synth->history_symbols_.data() + static_cast<size_t>(tt) * m;
      for (size_t r = 0; r < m; ++r) {
        code[r] = code[r] * static_cast<uint32_t>(alphabet) + col[r];
      }
    }
    std::vector<int64_t> hist(bins, 0);
    for (uint32_t c : code) ++hist[c];
    if (hist != counts) {
      return Status::InvalidArgument(
          "categorical histogram inconsistent with the record histories");
    }
    // Members: a permutation of the records, each listed in the group its
    // last k-1 symbols name.
    synth->groups_.Reset(static_cast<size_t>(overlaps));
    for (size_t z = 0; z < sizes.size(); ++z) {
      synth->groups_.AddCount(z, sizes[z]);
    }
    synth->groups_.BuildOffsets();
    std::vector<uint8_t> seen(m, 0);
    size_t idx = 0;
    for (size_t z = 0; z < sizes.size(); ++z) {
      for (int64_t j = 0; j < sizes[z]; ++j) {
        const uint32_t rec = members[idx++];
        if (rec >= m || seen[rec]) {
          return Status::InvalidArgument(
              "overlap group members are not a permutation of the records");
        }
        seen[rec] = 1;
        if (code[rec] % overlaps != z) {
          return Status::InvalidArgument(
              "overlap group member's history ends outside its group");
        }
        synth->groups_.Place(z, rec);
      }
    }
    // Re-arm the per-round scratch exactly as InitialRelease would; the
    // next SlideRelease assumes these are sized.
    synth->groups_next_.Reset(static_cast<size_t>(overlaps));
    synth->counts_scratch_.assign(static_cast<size_t>(bins), 0);
    synth->targets_.assign(static_cast<size_t>(alphabet), 0);
    synth->child_order_.assign(static_cast<size_t>(alphabet), 0);
    synth->initialized_ = true;
  }
  LONGDP_RETURN_NOT_OK(sio::ExpectTag(in, kEnd, "categorical checkpoint"));
  synth->t_ = t;
  synth->n_ = n;
  synth->num_records_ = num_records;
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
