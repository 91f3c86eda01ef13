#include "core/fixed_window_synthesizer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>

#include "core/limits.h"
#include "core/plane_histogram.h"
#include "core/theory.h"
#include "stream/state_io.h"
#include "util/thread_pool.h"

namespace longdp {
namespace core {

FixedWindowSynthesizer::FixedWindowSynthesizer(const Options& options,
                                               int64_t npad, double sigma2,
                                               double rho_per_step)
    : options_(options),
      npad_(npad),
      sigma2_(sigma2),
      rho_per_step_(rho_per_step),
      accountant_(options.rho),
      noise_root_(options.seed, util::substream::kHistogramNoise),
      rounding_root_(options.seed, util::substream::kRounding),
      cohort_root_(options.seed, util::substream::kCohort),
      noise_sampler_(dp::NoiseSampler::Gaussian(sigma2)) {}

Result<std::unique_ptr<FixedWindowSynthesizer>> FixedWindowSynthesizer::Create(
    const Options& options) {
  LONGDP_RETURN_NOT_OK(util::ValidateWindow(options.window_k));
  if (options.window_k > kMaxPlanes) {
    return Status::InvalidArgument(
        "window width k must be at most " + std::to_string(kMaxPlanes) +
        " (one bit plane per window round), got " +
        std::to_string(options.window_k));
  }
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
                                      options.rho, options.beta_target));
  }
  double steps = static_cast<double>(options.horizon - options.window_k + 1);
  double rho_per_step =
      std::isinf(options.rho) ? 0.0 : options.rho / steps;
  return std::unique_ptr<FixedWindowSynthesizer>(new FixedWindowSynthesizer(
      options, npad, sigma2, rho_per_step));
}

Status FixedWindowSynthesizer::ObserveRound(const std::vector<uint8_t>& bits) {
  // Packing validates before anything mutates: a rejected round must not
  // slide any window.
  LONGDP_RETURN_NOT_OK(packed_scratch_.Assign(bits));
  return ObserveRound(packed_scratch_.view());
}

Status FixedWindowSynthesizer::ObserveRound(data::RoundView round) {
  if (t_ >= options_.horizon) {
    return Status::OutOfRange("synthesizer past its horizon T=" +
                              std::to_string(options_.horizon));
  }
  const int k = options_.window_k;
  if (n_ < 0) {
    n_ = round.size();
    window_planes_.assign(static_cast<size_t>(k),
                          std::vector<uint64_t>(round.num_words(), 0));
    plane_head_ = 0;
  } else if (round.size() != n_) {
    return Status::InvalidArgument(
        "round size changed; the population is fixed over the horizon");
  }
  // Stage 1, the per-user slide: every window code drops its oldest bit
  // and gains this round's bit. Bit-sliced, that is one ring-head rotation
  // (the slot holding the expiring oldest plane becomes the new newest
  // plane) plus a copy of the round's packed words — no per-user work at
  // all. Warm-up rounds (t < k) skip the histogram.
  plane_head_ = (plane_head_ + k - 1) % k;
  std::copy(round.words(), round.words() + round.num_words(),
            window_planes_[static_cast<size_t>(plane_head_)].begin());
  ++t_;
  if (t_ < options_.window_k) return Status::OK();
  CountWindowHistogram();
  if (t_ == options_.window_k) return InitialRelease();
  return SlideRelease();
}

void FixedWindowSynthesizer::CountWindowHistogram() {
  const int k = options_.window_k;
  // Plane pointers in bit order: plane 0 (the newest round) is the ring
  // head, matching util::SlideAppend's newest-bit-is-bit-0 encoding.
  const uint64_t* planes[kMaxPlanes];
  for (int j = 0; j < k; ++j) {
    planes[j] =
        window_planes_[static_cast<size_t>((plane_head_ + j) % k)].data();
  }
  ShardedPlaneHistogram(options_.pool, planes, k, window_planes_[0].size(),
                        n_, &window_hist_, &shard_hist_);
}

std::vector<int64_t>& FixedWindowSynthesizer::NoisyPaddedHistogram() {
  // The exact histogram was counted from the bit-plane ring; pad and noise
  // it here. Bin s of round t draws from substream
  // noise_root_.Derive(t).Leaf(s) — every bin's rejection chain is an
  // independently addressed stream, so the batched sampler's bulk pass
  // (and any sharding of it) is bit-identical to the old per-bin one-shot
  // draws at any shard/thread count.
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

Status FixedWindowSynthesizer::InitialRelease() {
  LONGDP_RETURN_NOT_OK(accountant_.Charge(
      rho_per_step_, "fixed-window histogram t=" + std::to_string(t_)));
  std::vector<int64_t>& noisy = NoisyPaddedHistogram();
  ++stats_.releases;
  // Negative initial counts cannot seed records; clamp to zero and record
  // the failure event (Theorem 3.2 makes this improbable given n_pad).
  LONGDP_RETURN_NOT_OK(ClampCensus(&noisy, &stats_.negative_clamps));
  LONGDP_RETURN_NOT_OK(ApplyTargets(t_, noisy));
  cohort_->ReserveRounds(options_.horizon);
  return Status::OK();
}

Status FixedWindowSynthesizer::SlideRelease() {
  LONGDP_RETURN_NOT_OK(accountant_.Charge(
      rho_per_step_, "fixed-window histogram t=" + std::to_string(t_)));
  std::vector<int64_t>& noisy = NoisyPaddedHistogram();
  ++stats_.releases;
  // Half-integer roundings draw sequentially (in z order) from this
  // round's keyed rounding substream.
  util::SubstreamRng rounding =
      rounding_root_.Derive(static_cast<uint64_t>(t_));

  const int k = options_.window_k;
  const size_t num_overlaps = util::NumPatterns(k - 1);
  ones_target_.assign(num_overlaps, 0);
  std::vector<int64_t>& ones_target = ones_target_;
  for (util::Pattern z = 0; z < num_overlaps; ++z) {
    // Records currently ending in overlap z must split between z0 and z1.
    int64_t group = cohort_->GroupSize(z);
    util::Pattern z0 = (z << 1);          // width-k pattern z then 0
    util::Pattern z1 = (z << 1) | 1;      // width-k pattern z then 1
    int64_t c_z0 = noisy[z0];
    int64_t c_z1 = noisy[z1];
    // Delta_z = (group - (Chat_{z0} + Chat_{z1})) / 2, possibly half-integer.
    int64_t num = group - c_z0 - c_z1;  // 2 * Delta_z
    int64_t p_z0;
    if ((num % 2) == 0) {
      p_z0 = c_z0 + num / 2;
    } else {
      ++stats_.rounding_draws;
      int64_t b = rounding.Coin() ? 1 : -1;  // b_z = +-1/2, scaled by 2
      // Integer form of p_z0 = Chat_z0 + Delta_z + b_z.
      p_z0 = c_z0 + (num + b) / 2;
    }
    int64_t p_z1 = group - p_z0;
    // Pairwise clamp: keep the group-sum constraint, forbid negatives.
    if (p_z1 < 0) {
      p_z1 = 0;
      ++stats_.negative_clamps;
    } else if (p_z1 > group) {
      p_z1 = group;
      ++stats_.negative_clamps;  // p_z0 would have been negative
    }
    ones_target[z] = p_z1;
  }
  return ApplyTargets(t_, ones_target);
}

Status FixedWindowSynthesizer::ApplyTargets(
    int64_t t, const std::vector<int64_t>& targets) {
  if (t == options_.window_k) {
    LONGDP_ASSIGN_OR_RETURN(
        auto cohort, SyntheticCohort::Create(options_.window_k, targets));
    cohort_.emplace(std::move(cohort));
  } else {
    LONGDP_RETURN_NOT_OK(cohort_->AdvanceRound(
        targets, cohort_root_.Derive(static_cast<uint64_t>(t)),
        options_.pool));
  }
  release_targets_.insert(release_targets_.end(), targets.begin(),
                          targets.end());
  return Status::OK();
}

std::vector<int64_t> FixedWindowSynthesizer::SyntheticHistogram() const {
  if (!cohort_.has_value()) {
    return std::vector<int64_t>(util::NumPatterns(options_.window_k), 0);
  }
  return cohort_->WindowHistogram();
}

query::PaddingSpec FixedWindowSynthesizer::padding_spec() const {
  query::PaddingSpec spec;
  spec.synth_width = options_.window_k;
  spec.npad = npad_;
  spec.true_n = n_ > 0 ? n_ : 1;
  return spec;
}

Result<int64_t> FixedWindowSynthesizer::SyntheticCount(
    const query::WindowPredicate& pred) const {
  if (!has_release()) {
    return Status::FailedPrecondition(
        "no release yet: fewer than k rounds observed");
  }
  return query::CountOnHistogram(pred, cohort_->WindowHistogram(),
                                 options_.window_k);
}

Result<double> FixedWindowSynthesizer::BiasedAnswer(
    const query::WindowPredicate& pred) const {
  LONGDP_ASSIGN_OR_RETURN(int64_t count, SyntheticCount(pred));
  return query::BiasedFraction(count, cohort_->num_records());
}

Result<double> FixedWindowSynthesizer::DebiasedAnswer(
    const query::WindowPredicate& pred) const {
  LONGDP_ASSIGN_OR_RETURN(int64_t count, SyntheticCount(pred));
  return query::DebiasedFraction(count, pred, padding_spec());
}

namespace {
// v6, the derived-state binary stream/state_io.h encoding (v5 and the text
// versions v1-v4 are refused by name). After the magic line:
//
//   options  horizon, k, rho, npad (resolved), beta_target, seed
//   state    t, n, releases, negative_clamps, rounding_draws, spent rho
//   windows  (n >= 0) the k window planes of n lanes, newest round first
//   targets  (t >= k) the clamped initial census p^k (2^k counts), then the
//            ones targets of rounds k+1..t (2^(k-1) counts each)
//   end tag  "fwin-end"
//
// No cohort and no draw cursors: the cohort is stage 2 applied to the
// targets with streams keyed by round number, which LoadCheckpoint
// re-runs, and resuming at round t + 1 re-derives the exact remaining
// sequences.
constexpr char kFamily[] = "fixed-window";
constexpr uint64_t kEnd = stream::state_io::Tag("fwin-end");
}  // namespace

Status FixedWindowSynthesizer::SaveCheckpoint(std::ostream& out) const {
  namespace sio = stream::state_io;
  if (n_ > sio::kMaxRecords || npad_ > sio::kMaxRecords) {
    return Status::InvalidArgument(
        "populations or padding of 2^32 or more cannot be checkpointed");
  }
  if (cohort_.has_value() &&
      cohort_->num_records() >
          theory::MaxSyntheticRecords(n_, util::NumPatterns(options_.window_k),
                                      npad_, sigma2_)) {
    return Status::InvalidArgument(
        "synthetic cohort exceeds the checkpoint record bound");
  }
  sio::WriteMagic(out, kFamily, kCheckpointVersion);
  sio::WriteInt(out, options_.horizon);
  sio::WriteInt(out, options_.window_k);
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
      sio::WritePlane(out, window_planes_[static_cast<size_t>(
                               (plane_head_ + j) % k)]);
    }
  }
  sio::WriteArray(out, release_targets_.data(), release_targets_.size());
  sio::WriteTag(out, kEnd);
  return out.good() ? Status::OK()
                    : Status::IOError("checkpoint write failed");
}

Result<std::unique_ptr<FixedWindowSynthesizer>>
FixedWindowSynthesizer::LoadCheckpoint(std::istream& in) {
  namespace sio = stream::state_io;
  LONGDP_RETURN_NOT_OK(sio::ExpectMagic(in, kFamily, kCheckpointVersion));
  Options options;
  LONGDP_ASSIGN_OR_RETURN(options.horizon, sio::Read<int64_t>(in));
  LONGDP_ASSIGN_OR_RETURN(const int64_t window_k,
                          sio::ReadIntIn(in, 1, 64, "window k"));
  options.window_k = static_cast<int>(window_k);
  LONGDP_ASSIGN_OR_RETURN(options.rho, sio::Read<double>(in));
  // The resolved padding: a negative one would be re-derived from beta,
  // restoring a different synthesizer than the one saved.
  LONGDP_ASSIGN_OR_RETURN(options.npad,
                          sio::ReadIntIn(in, 0, sio::kMaxRecords, "npad"));
  LONGDP_ASSIGN_OR_RETURN(options.beta_target, sio::Read<double>(in));
  LONGDP_ASSIGN_OR_RETURN(options.seed, sio::Read<uint64_t>(in));
  // Create rejects NaN or non-positive rho, so the budget cannot restore
  // as something that silently disables the accountant.
  LONGDP_ASSIGN_OR_RETURN(auto synth, Create(options));
  const int k = options.window_k;

  LONGDP_ASSIGN_OR_RETURN(const int64_t t,
                          sio::ReadIntIn(in, 0, options.horizon, "round"));
  LONGDP_ASSIGN_OR_RETURN(
      const int64_t n, sio::ReadIntIn(in, -1, sio::kMaxRecords, "population"));
  if ((t == 0) != (n < 0)) {
    return Status::InvalidArgument(
        "fixed-window checkpoint population inconsistent with its round");
  }
  Stats stats;
  LONGDP_ASSIGN_OR_RETURN(
      stats.releases, sio::ReadIntIn(in, 0, options.horizon, "releases"));
  LONGDP_ASSIGN_OR_RETURN(stats.negative_clamps,
                          sio::ReadIntIn(in, 0, INT64_MAX, "clamp count"));
  LONGDP_ASSIGN_OR_RETURN(stats.rounding_draws,
                          sio::ReadIntIn(in, 0, INT64_MAX, "rounding draws"));
  if (stats.releases != std::max<int64_t>(0, t - k + 1)) {
    return Status::InvalidArgument(
        "fixed-window checkpoint release count inconsistent with its round");
  }
  LONGDP_ASSIGN_OR_RETURN(const double spent, sio::Read<double>(in));
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
    synth->window_planes_.resize(static_cast<size_t>(k));
    for (int j = 0; j < k; ++j) {
      auto& plane = synth->window_planes_[static_cast<size_t>(j)];
      LONGDP_RETURN_NOT_OK(sio::ReadPlane(in, n, &plane));
      // Planes older than round 1 were never written.
      if (j >= t && std::any_of(plane.begin(), plane.end(),
                                [](uint64_t w) { return w != 0; })) {
        return Status::InvalidArgument(
            "fixed-window checkpoint has window bits before round 1");
      }
    }
    synth->plane_head_ = 0;
  }
  if (t >= k) {
    // The census seeds every record, so its total is bounded before the
    // cohort is allocated; each later round's targets are checked against
    // the group sizes before its column is.
    std::vector<int64_t> targets;
    LONGDP_RETURN_NOT_OK(sio::ReadBoundedCounts(
        in, util::NumPatterns(k),
        theory::MaxSyntheticRecords(n, util::NumPatterns(k), synth->npad_,
                                    synth->sigma2_),
        &targets, "fixed-window checkpoint census"));
    LONGDP_RETURN_NOT_OK(synth->ApplyTargets(k, targets));
    for (int64_t tt = k + 1; tt <= t; ++tt) {
      LONGDP_RETURN_NOT_OK(
          sio::ReadVector(in, util::NumPatterns(k - 1), &targets));
      LONGDP_RETURN_NOT_OK(synth->ApplyTargets(tt, targets));
    }
  }
  LONGDP_RETURN_NOT_OK(sio::ExpectTag(in, kEnd, "fixed-window checkpoint"));
  synth->t_ = t;
  synth->n_ = n;
  synth->stats_ = stats;
  return synth;
}

}  // namespace core
}  // namespace longdp
