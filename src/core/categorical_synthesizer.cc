#include "core/categorical_synthesizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>

#include "core/limits.h"
#include "core/plane_histogram.h"
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

/// code_bin_ entry of a binary window code with a digit >= A.
constexpr uint32_t kNoBin = UINT32_MAX;
}  // namespace

// The binary stream/state_io.h encoding, shared by both checkpoint
// families: categorical v4 (v1-v3 are refused by name) and fixed-window v7,
// which stores A = 2 only. After the magic line:
//
//   options  horizon, k, A, rho, npad (resolved), beta_target, seed
//   state    t, n, releases, negative_clamps, rounding draws, spent rho
//   windows  (n >= 0) the k * b window planes of n lanes, newest round
//            first and bit 0 first within a round
//   (t >= k):
//   census   the clamped initial census p^k (A^k counts)
//   rounds   the census of each slide round k+1..t (A^k counts)
//   end tag  the family's sentinel
//
// No cohort and no draw cursors: the cohort is stage 2 applied to the
// censuses with streams keyed by round and overlap, which LoadCheckpoint
// re-runs. The assignment streams do not depend on the remainder draws,
// so the rebuild needs nothing else.
const CategoricalWindowSynthesizer::Codec CategoricalWindowSynthesizer::kCodec{
    "categorical", kCheckpointVersion, stream::state_io::Tag("catg-end"),
    /*binary=*/false};

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
  LONGDP_ASSIGN_OR_RETURN(
      uint64_t bins, SyntheticCohort::NumBins(options.window_k,
                                              options.alphabet));
  if (options.horizon < options.window_k) {
    return Status::InvalidArgument("horizon T must be >= window k");
  }
  LONGDP_RETURN_NOT_OK(CheckHorizonCap(options.horizon));
  LONGDP_RETURN_NOT_OK(CheckBudget(options.rho));
  LONGDP_ASSIGN_OR_RETURN(
      double sigma2, theory::FixedWindowSigma2(options.horizon,
                                               options.window_k, options.rho));
  int64_t npad = options.npad;
  if (npad < 0) {
    if (!(options.beta_target > 0.0) || options.beta_target >= 1.0) {
      return Status::InvalidArgument("beta_target must be in (0,1)");
    }
    LONGDP_ASSIGN_OR_RETURN(
        npad, theory::RecommendedNpad(options.horizon, options.window_k,
                                      options.rho, options.beta_target, bins));
  }
  double steps = static_cast<double>(options.horizon - options.window_k + 1);
  double rho_per_step = std::isinf(options.rho) ? 0.0 : options.rho / steps;
  auto synth = std::unique_ptr<CategoricalWindowSynthesizer>(
      new CategoricalWindowSynthesizer(options, npad, sigma2, rho_per_step));
  synth->num_bins_ = bins;
  synth->num_overlaps_ = bins / static_cast<uint64_t>(options.alphabet);
  synth->no_release_.assign(bins, 0);
  // The binary-code -> base-A bin map: digit j (the symbol from j rounds
  // ago) sits in bits [j*b, (j+1)*b) and weighs A^j, so the oldest symbol
  // is the most significant base-A digit.
  const int b = std::bit_width(static_cast<unsigned>(options.alphabet - 1));
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

Status CategoricalWindowSynthesizer::CheckRound(int64_t n) const {
  if (t_ >= options_.horizon) {
    return Status::OutOfRange("synthesizer past its horizon T=" +
                              std::to_string(options_.horizon));
  }
  if (n_ >= 0 && n != n_) {
    return Status::InvalidArgument(
        "round size changed; the population is fixed over the horizon");
  }
  return Status::OK();
}

void CategoricalWindowSynthesizer::RotateRing(int64_t n) {
  const int k = options_.window_k;
  if (n_ < 0) {
    n_ = n;
    window_planes_.assign(static_cast<size_t>(k * symbol_bits_),
                          std::vector<uint64_t>(
                              static_cast<size_t>((n + 63) >> 6), 0));
    plane_head_ = 0;
  }
  plane_head_ = (plane_head_ + k - 1) % k;
}

Status CategoricalWindowSynthesizer::ObserveRound(
    const std::vector<uint8_t>& symbols) {
  const int64_t n = static_cast<int64_t>(symbols.size());
  // Validate before mutating: a rejected round, the first one included,
  // must not fix the population or slide any window.
  LONGDP_RETURN_NOT_OK(CheckRound(n));
  LONGDP_RETURN_NOT_OK(
      data::CheckSymbols(symbols.data(), n, options_.alphabet));
  RotateRing(n);
  const size_t first = static_cast<size_t>(plane_head_ * symbol_bits_);
  uint64_t* slot[8];
  for (int p = 0; p < symbol_bits_; ++p) {
    slot[p] = window_planes_[first + static_cast<size_t>(p)].data();
  }
  data::SliceSymbols(symbols.data(), n, symbol_bits_, slot);
  return Release();
}

Status CategoricalWindowSynthesizer::ObserveRound(data::RoundView round) {
  if (options_.alphabet != 2) {
    return Status::FailedPrecondition(
        "a packed round carries binary symbols; this synthesizer's alphabet "
        "is " + std::to_string(options_.alphabet));
  }
  LONGDP_RETURN_NOT_OK(CheckRound(round.size()));
  RotateRing(round.size());
  std::copy(round.words(), round.words() + round.num_words(),
            window_planes_[static_cast<size_t>(plane_head_)].begin());
  return Release();
}

Status CategoricalWindowSynthesizer::Release() {
  ++t_;
  const int k = options_.window_k;
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
  LONGDP_RETURN_NOT_OK(accountant_.Charge(
      rho_per_step_, "window histogram t=" + std::to_string(t_)));
  std::vector<int64_t>& noisy = NoisyPaddedHistogram();
  ++stats_.releases;
  if (t_ > k) return SlideRelease();
  // Negative initial counts cannot seed records; clamp to zero and record
  // the failure event (Theorem 3.2 makes this improbable given n_pad).
  LONGDP_RETURN_NOT_OK(ClampCensus(&noisy, &stats_.negative_clamps));
  LONGDP_RETURN_NOT_OK(ApplyCensus(t_, noisy));
  cohort_->ReserveRounds(options_.horizon);
  return Status::OK();
}

void CategoricalWindowSynthesizer::CountPlaneHistogram() {
  const int k = options_.window_k;
  const int b = symbol_bits_;
  // Plane pointers in bit order: the newest round's planes (the ring head)
  // first, matching util::SlideAppend's newest-bit-is-bit-0 encoding.
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

Status CategoricalWindowSynthesizer::SlideRelease() {
  const std::vector<int64_t>& noisy = noisy_scratch_;
  const int64_t a = options_.alphabet;
  census_.resize(num_bins_);
  targets_.resize(static_cast<size_t>(a));
  child_order_.resize(static_cast<size_t>(a));
  std::vector<int64_t>& targets = targets_;
  // Remainder children draw sequentially, in z order, from this round's
  // keyed rounding substream.
  util::SubstreamRng rounding =
      rounding_root_.Derive(static_cast<uint64_t>(t_));
  util::BatchSampler sampler(&rounding);

  // The census: the per-child assignment counts for every overlap depend
  // only on the noisy histogram and the current group sizes, not on which
  // record goes where, so they are all computed before the cohort moves a
  // record.
  for (uint64_t z = 0; z < num_overlaps_; ++z) {
    const int64_t group = cohort_->GroupSize(z);
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
      ++stats_.rounding_draws;
      // Give +1 to `rem` uniformly chosen distinct children: the front of
      // a partial shuffle of A-1..0. At A = 2 that is one Bounded(2) draw,
      // the word's top bit, picking child 0 exactly when Algorithm 1's
      // b_z = +1/2 rounds p_z0 up.
      for (size_t c = 0; c < child_order_.size(); ++c) {
        child_order_[c] = child_order_.size() - 1 - c;
      }
      sampler.PartialShuffle(child_order_.data(), a, rem);
      for (int64_t r = 0; r < rem; ++r) {
        ++targets[child_order_[static_cast<size_t>(r)]];
      }
    }
    // Water-fill any negatives back from the positive targets, preserving
    // the group sum (at A = 2, Algorithm 1's pairwise clamp). Afterwards
    // the targets sum to the group size exactly: base/rem construction
    // makes the raw sum equal to `group`, and the fill moves mass without
    // creating or destroying it.
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
              census_.data() + z * static_cast<uint64_t>(a));
  }
  return ApplyCensus(t_, census_);
}

Status CategoricalWindowSynthesizer::ApplyCensus(
    int64_t t, const std::vector<int64_t>& census) {
  if (t == options_.window_k) {
    LONGDP_ASSIGN_OR_RETURN(
        auto cohort, SyntheticCohort::Create(options_.window_k,
                                             options_.alphabet, census));
    cohort_.emplace(std::move(cohort));
  } else {
    LONGDP_RETURN_NOT_OK(cohort_->AdvanceRound(
        census, cohort_root_.Derive(static_cast<uint64_t>(t)),
        options_.pool));
  }
  release_targets_.insert(release_targets_.end(), census.begin(),
                          census.end());
  return Status::OK();
}

Status CategoricalWindowSynthesizer::SaveCheckpoint(std::ostream& out) const {
  return Save(out, kCodec);
}

Result<std::unique_ptr<CategoricalWindowSynthesizer>>
CategoricalWindowSynthesizer::LoadCheckpoint(std::istream& in) {
  return Load(in, kCodec);
}

Status CategoricalWindowSynthesizer::Save(std::ostream& out,
                                          const Codec& codec) const {
  namespace sio = stream::state_io;
  if (n_ > sio::kMaxRecords || npad_ > sio::kMaxRecords) {
    return Status::InvalidArgument(
        "populations or padding of 2^32 or more cannot be checkpointed");
  }
  if (cohort_.has_value() &&
      cohort_->num_records() >
          theory::MaxSyntheticRecords(n_, num_bins_, npad_, sigma2_)) {
    return Status::InvalidArgument(
        "synthetic cohort exceeds the checkpoint record bound");
  }
  sio::WriteMagic(out, codec.family, codec.version);
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
  sio::WriteInt(out, stats_.rounding_draws);
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
  sio::WriteTag(out, codec.end_tag);
  return out.good() ? Status::OK()
                    : Status::IOError("checkpoint write failed");
}

Result<std::unique_ptr<CategoricalWindowSynthesizer>>
CategoricalWindowSynthesizer::Load(std::istream& in, const Codec& codec) {
  namespace sio = stream::state_io;
  const std::string what = std::string(codec.family) + " checkpoint";
  LONGDP_RETURN_NOT_OK(sio::ExpectMagic(in, codec.family, codec.version));
  Options options;
  LONGDP_ASSIGN_OR_RETURN(options.horizon, sio::Read<int64_t>(in));
  LONGDP_ASSIGN_OR_RETURN(const int64_t window_k,
                          sio::ReadIntIn(in, 1, 64, "window k"));
  options.window_k = static_cast<int>(window_k);
  LONGDP_ASSIGN_OR_RETURN(const int64_t alphabet,
                          sio::ReadIntIn(in, 2, codec.binary ? 2 : 256,
                                         "alphabet size"));
  options.alphabet = static_cast<int>(alphabet);
  LONGDP_ASSIGN_OR_RETURN(options.rho, sio::Read<double>(in));
  // The resolved padding: a negative one would be re-derived from beta,
  // restoring a different synthesizer than the one saved.
  LONGDP_ASSIGN_OR_RETURN(options.npad,
                          sio::ReadIntIn(in, 0, sio::kMaxRecords, "npad"));
  LONGDP_ASSIGN_OR_RETURN(options.beta_target, sio::Read<double>(in));
  LONGDP_ASSIGN_OR_RETURN(options.seed, sio::Read<uint64_t>(in));
  // Create rejects NaN or non-positive rho, so the budget cannot restore
  // as something that silently disables the accountant; it also validates
  // k and A.
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
  LONGDP_ASSIGN_OR_RETURN(stats.rounding_draws,
                          sio::ReadIntIn(in, 0, INT64_MAX, "rounding draws"));
  LONGDP_ASSIGN_OR_RETURN(const double spent, sio::Read<double>(in));
  if ((t == 0) != (n < 0)) {
    return Status::InvalidArgument(what +
                                   " population inconsistent with its round");
  }
  if (stats.releases != std::max<int64_t>(0, t - k + 1)) {
    return Status::InvalidArgument(
        what + " release count inconsistent with its round");
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
              what + " has window symbols before round 1");
        }
      }
    }
    synth->plane_head_ = 0;
    synth->n_ = n;
    // Every lane's digits must lie in the alphabet: a binary code with a
    // digit >= A has no bin to fold into. Only an alphabet short of a
    // power of two has such codes.
    if (options.alphabet != 1 << b) {
      synth->CountPlaneHistogram();
      for (size_t code = 0; code < synth->code_bin_.size(); ++code) {
        if (synth->code_bin_[code] == kNoBin &&
            synth->plane_hist_[code] != 0) {
          return Status::InvalidArgument(
              what + " window holds a symbol outside the alphabet");
        }
      }
    }
  }
  if (t >= k) {
    // The initial census seeds every record, so its total is bounded
    // before the cohort is allocated; each later census is checked against
    // the group sizes before its round is. Capacity only for the seeded
    // rounds: t is not yet backed by the rounds' bytes, so it must not
    // size an allocation.
    std::vector<int64_t> census;
    LONGDP_RETURN_NOT_OK(sio::ReadBoundedCounts(
        in, bins,
        theory::MaxSyntheticRecords(n, bins, synth->npad_, synth->sigma2_),
        &census, what + " census"));
    LONGDP_RETURN_NOT_OK(synth->ApplyCensus(k, census));
    for (int64_t tt = k + 1; tt <= t; ++tt) {
      LONGDP_RETURN_NOT_OK(sio::ReadVector(in, bins, &census));
      LONGDP_RETURN_NOT_OK(synth->ApplyCensus(tt, census));
    }
  }
  LONGDP_RETURN_NOT_OK(sio::ExpectTag(in, codec.end_tag, what));
  synth->t_ = t;
  synth->n_ = n;
  synth->stats_ = stats;
  return synth;
}

Result<double> CategoricalWindowSynthesizer::DebiasedBinFraction(
    uint64_t s) const {
  if (!has_release()) {
    return Status::FailedPrecondition("no release yet");
  }
  if (s >= num_bins_) {
    return Status::OutOfRange("pattern code out of range");
  }
  const int64_t true_n = n_ > 0 ? n_ : 1;
  return static_cast<double>(cohort_->WindowHistogram()[s] - npad_) /
         static_cast<double>(true_n);
}

}  // namespace core
}  // namespace longdp
