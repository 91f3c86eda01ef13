#include "core/cumulative_synthesizer.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "core/limits.h"
#include "stream/counter_factory.h"
#include "stream/state_io.h"
#include "util/batch_sampler.h"
#include "util/simd/simd.h"
#include "util/thread_pool.h"

namespace longdp {
namespace core {

Result<std::unique_ptr<CumulativeSynthesizer>> CumulativeSynthesizer::Create(
    const Options& options) {
  if (options.horizon < 1) {
    return Status::InvalidArgument("horizon T must be >= 1");
  }
  LONGDP_RETURN_NOT_OK(CheckHorizonCap(options.horizon));
  LONGDP_RETURN_NOT_OK(CheckBudget(options.rho));
  Options resolved = options;
  if (!resolved.counter_factory) {
    resolved.counter_factory = stream::DefaultCounterFactory();
  }
  return std::unique_ptr<CumulativeSynthesizer>(
      new CumulativeSynthesizer(resolved));
}

Status CumulativeSynthesizer::InitializeForPopulation(int64_t n,
                                                      int64_t reserve_rounds) {
  n_ = n;
  // Weights reach at most horizon, so bit_width(horizon) planes hold every
  // value; Create's horizon cap keeps that within the kernels' kMaxPlanes.
  const int planes = NumWeightPlanes();
  const size_t num_words = static_cast<size_t>((n + 63) >> 6);
  weight_planes_.assign(static_cast<size_t>(planes),
                        std::vector<uint64_t>(num_words, 0));
  plane_hist_.assign(size_t{1} << planes, 0);
  words_per_round_ = num_words;
  history_words_.clear();
  history_words_.reserve(num_words * static_cast<size_t>(reserve_rounds));
  weight_groups_.assign(static_cast<size_t>(options_.horizon) + 1, {});
  group_head_.assign(static_cast<size_t>(options_.horizon) + 1, 0);
  auto& zero_group = weight_groups_[0];
  zero_group.reserve(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) {
    zero_group.push_back(static_cast<uint32_t>(r));
  }

  stream::CounterBank::Options bank_options;
  bank_options.horizon = options_.horizon;
  bank_options.population = n;
  bank_options.total_rho = options_.rho;
  bank_options.split = options_.split;
  bank_options.factory = options_.counter_factory;
  bank_options.seed = options_.seed;
  bank_options.pool = options_.pool;
  LONGDP_ASSIGN_OR_RETURN(
      bank_, stream::CounterBank::Create(bank_options, &accountant_));

  // Shat^0 = (n, 0, ..., 0), the bank's own starting row.
  released_.assign(static_cast<size_t>(options_.horizon) + 1, 0);
  released_[0] = n;
  return Status::OK();
}

Status CumulativeSynthesizer::ObserveRound(const std::vector<uint8_t>& bits) {
  // Packing validates: a round with any entry other than 0/1 is rejected
  // here, before any state changes. (The pre-validation variant
  // incremented weights up to the bad entry, which corrupted the
  // weight->z indexing of every later round — an ASan-visible overflow.)
  LONGDP_RETURN_NOT_OK(packed_scratch_.Assign(bits));
  return ObserveRound(packed_scratch_.view());
}

Status CumulativeSynthesizer::ObserveRound(data::RoundView round) {
  if (t_ >= options_.horizon) {
    return Status::OutOfRange("synthesizer past its horizon T=" +
                              std::to_string(options_.horizon));
  }
  if (n_ < 0) {
    // Record ids are uint32_t; refuse a population they cannot hold before
    // anything is sized for it.
    if (round.size() > stream::state_io::kMaxRecords) {
      return Status::InvalidArgument(
          "population exceeds 2^32 - 1 records (record ids are 32-bit)");
    }
    LONGDP_RETURN_NOT_OK(
        InitializeForPopulation(round.size(), options_.horizon));
  } else if (round.size() != n_) {
    return Status::InvalidArgument(
        "round size changed; the population is fixed over the horizon");
  }

  // Stage 1 input: z^t_b = #{ i : weight_i(t-1) = b-1 and x^t_i = 1 }.
  //
  // The weight histogram of the round's set lanes is one masked
  // PlaneHistogram over the weight planes (mask = the round's packed
  // words), and the weight increments are one bit-sliced ripple-carry
  // PlaneAdd of those same words. Both kernels are exact integer
  // popcount/logic over word ranges, so the word-range shards below
  // (per-shard histograms reduced in shard order, disjoint PlaneAdd
  // ranges) are identical at every thread count. Lanes past n never count:
  // their mask bits are zero by the RoundView packing invariant.
  const int shards = util::NumShards(options_.pool);
  const int p = static_cast<int>(weight_planes_.size());
  const size_t num_words = round.num_words();
  const uint64_t* planes[kMaxPlanes];
  uint64_t* mut_planes[kMaxPlanes];
  for (int j = 0; j < p; ++j) {
    planes[j] = weight_planes_[static_cast<size_t>(j)].data();
    mut_planes[j] = weight_planes_[static_cast<size_t>(j)].data();
  }
  std::fill(plane_hist_.begin(), plane_hist_.end(), 0);
  if (shards > 1 && num_words >= static_cast<size_t>(shards)) {
    if (shard_z_.size() != static_cast<size_t>(shards)) {
      shard_z_.assign(static_cast<size_t>(shards),
                      std::vector<int64_t>(plane_hist_.size(), 0));
    }
    options_.pool->ParallelFor(
        static_cast<int64_t>(num_words), [&](int s, int64_t lo, int64_t hi) {
          auto& h = shard_z_[static_cast<size_t>(s)];
          std::fill(h.begin(), h.end(), 0);
          const uint64_t* sub[kMaxPlanes];
          uint64_t* mut_sub[kMaxPlanes];
          for (int j = 0; j < p; ++j) {
            sub[j] = planes[j] + lo;
            mut_sub[j] = mut_planes[j] + lo;
          }
          const size_t span = static_cast<size_t>(hi - lo);
          util::simd::PlaneHistogram(sub, p, round.words() + lo, span,
                                     h.data());
          util::simd::PlaneAdd(mut_sub, p, round.words() + lo, span);
        });
    for (const auto& h : shard_z_) {
      for (size_t b = 0; b < plane_hist_.size(); ++b) plane_hist_[b] += h[b];
    }
  } else {
    util::simd::PlaneHistogram(planes, p, round.words(), num_words,
                               plane_hist_.data());
    util::simd::PlaneAdd(mut_planes, p, round.words(), num_words);
  }
  // Masked lanes carry weights < t <= horizon, so the histogram's tail
  // past the horizon's T entries is always zero.
  const auto horizon = static_cast<size_t>(options_.horizon);
  z_rows_.insert(z_rows_.end(), plane_hist_.begin(),
                 plane_hist_.begin() + static_cast<int64_t>(horizon));
  return ReleaseRound(std::span<const int64_t>(z_rows_).last(horizon));
}

Status CumulativeSynthesizer::ReleaseRound(std::span<const int64_t> z) {
  ++t_;
  LONGDP_RETURN_NOT_OK(bank_->ObserveRound(z));
  const std::vector<int64_t>& row = bank_->monotone_row();
  // Extend every record with a provisional 0 (one zero-filled round
  // append), then set the promoted records' bits. Descending b keeps
  // selections against the time-(t-1) weight groups (promotions only move
  // records upward into groups already processed).
  const size_t col_base = static_cast<size_t>(t_ - 1) * words_per_round_;
  history_words_.resize(col_base + words_per_round_, 0);
  uint64_t* col = history_words_.data() + col_base;
  util::SubstreamRng selection =
      selection_root_.Derive(static_cast<uint64_t>(t_));
  util::BatchSampler sampler(&selection);
  for (int64_t b = options_.horizon; b >= 1; --b) {
    size_t ib = static_cast<size_t>(b);
    auto& source = weight_groups_[ib - 1];
    size_t& head = group_head_[ib - 1];
    int64_t group = static_cast<int64_t>(source.size() - head);
    // Monotonization guarantees 0 <= zhat <= group: the group of weight
    // b-1 holds Shat^{t-1}_{b-1} - Shat^{t-1}_b records, and
    // Shat^{t-1}_b <= Shat^t_b <= Shat^{t-1}_{b-1}.
    int64_t zhat = row[ib] - released_[ib];
    if (zhat == 0) continue;
    // Uniformly choose zhat records to promote: batched partial
    // Fisher-Yates over the live suffix [head, end). The sampler handles
    // the zhat == group (full-group promotion) edge internally, skipping
    // the degenerate final draw.
    uint32_t* live = source.data() + head;
    sampler.PartialShuffle(live, group, zhat);
    auto& target = weight_groups_[ib];
    for (int64_t i = 0; i < zhat; ++i) {
      col[live[i] >> 6] |= uint64_t{1} << (live[i] & 63);
    }
    // One ranged append instead of zhat push_backs (same member order).
    target.insert(target.end(), live, live + zhat);
    head += zhat;
    // Amortized compaction keeps the spent prefix from growing past the
    // live region, bounding memory without per-round memmoves.
    if (head == source.size()) {
      source.clear();
      head = 0;
    } else if (head > 64 && head * 2 > source.size()) {
      source.erase(source.begin(),
                   source.begin() + static_cast<int64_t>(head));
      head = 0;
    }
  }
  released_ = row;
  return Status::OK();
}

const std::vector<int64_t>& CumulativeSynthesizer::raw_thresholds() const {
  static const std::vector<int64_t> kEmpty;
  return bank_ ? bank_->raw_row() : kEmpty;
}

Result<double> CumulativeSynthesizer::Answer(int64_t b) const {
  if (t_ < 1) {
    return Status::FailedPrecondition("no rounds observed yet");
  }
  if (b < 0 || b > options_.horizon) {
    return Status::OutOfRange("threshold b must be in [0, T]");
  }
  if (n_ == 0) return 0.0;
  return static_cast<double>(released_[static_cast<size_t>(b)]) /
         static_cast<double>(n_);
}

std::vector<int64_t> CumulativeSynthesizer::SyntheticThresholdCounts() const {
  std::vector<int64_t> counts(static_cast<size_t>(options_.horizon) + 1, 0);
  if (n_ < 0) return counts;
  // Group sizes give the exact-weight histogram; suffix-sum to thresholds.
  // Live size = stored size minus the spent head prefix.
  int64_t running = 0;
  for (int64_t b = options_.horizon; b >= 0; --b) {
    running += static_cast<int64_t>(
        weight_groups_[static_cast<size_t>(b)].size() -
        group_head_[static_cast<size_t>(b)]);
    counts[static_cast<size_t>(b)] = running;
  }
  return counts;
}

Result<data::LongitudinalDataset> CumulativeSynthesizer::ToDataset() const {
  if (t_ < 1) {
    return Status::FailedPrecondition("no rounds observed yet");
  }
  LONGDP_ASSIGN_OR_RETURN(
      auto ds, data::LongitudinalDataset::Create(n_, options_.horizon));
  for (int64_t tt = 1; tt <= t_; ++tt) {
    LONGDP_RETURN_NOT_OK(ds.AppendPackedRound(Round(tt)));
  }
  return ds;
}

namespace {
// v7, the binary stream/state_io.h encoding (v5, v6 and the text versions
// v1-v4 are refused by name). After the magic line:
//
//   options    horizon, rho, budget-split name, counter name, seed
//   state      t, n
//   (n >= 0):
//   weights    bit_width(T) planes of n lanes: the true prefix weights
//   increments z^tau_b for b = 1..T, for tau = 1..t: the bank's input
//   end tag    "cuml-end"
//
// Nothing else is stored: the counters' state is a function of the
// increments they observed, the released rows a function of the counters'
// outputs, and the synthetic records stage 2 applied to those rows with
// selection streams keyed by round number. LoadCheckpoint re-runs all
// three.
constexpr char kFamily[] = "cumulative";
constexpr uint64_t kEnd = stream::state_io::Tag("cuml-end");
}  // namespace

void CumulativeSynthesizer::set_pool(util::ThreadPool* pool) {
  options_.pool = pool;
  // The counter bank captured the pool at creation; keep it in step.
  if (bank_ != nullptr) bank_->set_pool(pool);
}

Status CumulativeSynthesizer::SaveCheckpoint(std::ostream& out) const {
  namespace sio = stream::state_io;
  if (n_ > sio::kMaxRecords) {
    return Status::InvalidArgument(
        "populations of 2^32 or more cannot be checkpointed");
  }
  sio::WriteMagic(out, kFamily, kCheckpointVersion);
  sio::WriteInt(out, options_.horizon);
  sio::WriteDouble(out, options_.rho);
  sio::WriteString(out, stream::BudgetSplitName(options_.split));
  sio::WriteString(out, options_.counter_factory->name());
  sio::WriteU64(out, options_.seed);
  sio::WriteInt(out, t_);
  sio::WriteInt(out, n_);
  if (n_ >= 0) {
    for (const auto& plane : weight_planes_) sio::WritePlane(out, plane);
    sio::WriteArray(out, z_rows_.data(), z_rows_.size());
  }
  sio::WriteTag(out, kEnd);
  return out.good() ? Status::OK()
                    : Status::IOError("checkpoint write failed");
}

Result<std::unique_ptr<CumulativeSynthesizer>>
CumulativeSynthesizer::LoadCheckpoint(std::istream& in) {
  namespace sio = stream::state_io;
  LONGDP_RETURN_NOT_OK(sio::ExpectMagic(in, kFamily, kCheckpointVersion));
  Options options;
  LONGDP_ASSIGN_OR_RETURN(options.horizon, sio::Read<int64_t>(in));
  LONGDP_ASSIGN_OR_RETURN(options.rho, sio::Read<double>(in));
  LONGDP_ASSIGN_OR_RETURN(const std::string split_name, sio::ReadString(in));
  LONGDP_ASSIGN_OR_RETURN(options.split,
                          stream::BudgetSplitFromName(split_name));
  LONGDP_ASSIGN_OR_RETURN(const std::string counter_name, sio::ReadString(in));
  LONGDP_ASSIGN_OR_RETURN(options.counter_factory,
                          stream::MakeCounterFactory(counter_name));
  LONGDP_ASSIGN_OR_RETURN(options.seed, sio::Read<uint64_t>(in));
  // Create caps the horizon and rejects a rho below kMinRho (or NaN), so
  // the replay below draws noise at a bounded scale.
  LONGDP_ASSIGN_OR_RETURN(auto synth, Create(options));
  const int64_t horizon = options.horizon;
  LONGDP_ASSIGN_OR_RETURN(const int64_t t,
                          sio::ReadIntIn(in, 0, horizon, "round"));
  LONGDP_ASSIGN_OR_RETURN(
      const int64_t n, sio::ReadIntIn(in, -1, sio::kMaxRecords, "population"));
  if ((t == 0) != (n < 0)) {
    return Status::InvalidArgument(
        "cumulative checkpoint population inconsistent with its round");
  }
  if (n < 0) {
    LONGDP_RETURN_NOT_OK(sio::ExpectTag(in, kEnd, "cumulative checkpoint"));
    return synth;
  }
  // The weight planes and the increments come first: they back the
  // population and the round with bytes before anything is sized by them.
  const int planes = synth->NumWeightPlanes();
  std::vector<std::vector<uint64_t>> weight_planes(
      static_cast<size_t>(planes));
  for (auto& plane : weight_planes) {
    LONGDP_RETURN_NOT_OK(sio::ReadPlane(in, n, &plane));
  }
  const auto width = static_cast<size_t>(horizon);
  std::vector<int64_t>& z_rows = synth->z_rows_;
  LONGDP_RETURN_NOT_OK(
      sio::ReadVector(in, static_cast<uint64_t>(t) * width, &z_rows));
  LONGDP_RETURN_NOT_OK(sio::ExpectTag(in, kEnd, "cumulative checkpoint"));
  // The increments are validated before any counter sees them. z^tau_b
  // counts users, so it lies in [0, n], and it is 0 for b > tau (no weight
  // exceeds the rounds elapsed). Column b sums to the users whose weight
  // reached b, which the true weight planes fix. Every sum stays below
  // T * n < 2^48.
  std::vector<int64_t> reached(width + 1, 0);
  for (size_t tau = 1; tau <= static_cast<size_t>(t); ++tau) {
    for (size_t b = 1; b <= width; ++b) {
      const int64_t z = z_rows[(tau - 1) * width + b - 1];
      if (z < 0 || z > (b <= tau ? n : 0)) {
        return Status::InvalidArgument(
            "checkpoint increment z^t_b out of range at t=" +
            std::to_string(tau) + ", b=" + std::to_string(b));
      }
      reached[b] += z;
    }
  }
  // InitializeForPopulation creates the bank and charges the full budget,
  // exactly as the original run did at its first round. A restore sizes
  // the history for the t rounds it rebuilds, not for the horizon: both
  // come from the payload, and only t is backed by its rows.
  LONGDP_RETURN_NOT_OK(synth->InitializeForPopulation(n, t));
  synth->weight_planes_ = std::move(weight_planes);
  std::vector<int64_t>& hist = synth->plane_hist_;
  const uint64_t* plane_ptrs[kMaxPlanes];
  for (int j = 0; j < planes; ++j) {
    plane_ptrs[j] = synth->weight_planes_[static_cast<size_t>(j)].data();
  }
  util::simd::PlaneHistogram(plane_ptrs, planes, nullptr,
                             static_cast<size_t>((n + 63) >> 6), hist.data());
  // Lanes of weight >= w, from the top plane value down; none may exceed T.
  int64_t at_least = 0;
  for (size_t w = hist.size() - 1; w >= 1; --w) {
    at_least += hist[w];
    if (at_least != (w <= width ? reached[w] : 0)) {
      return Status::InvalidArgument(
          "checkpoint increments inconsistent with its weights");
    }
  }
  // Replay: the same bank advance and promotions the live rounds ran.
  for (size_t tau = 0; tau < static_cast<size_t>(t); ++tau) {
    LONGDP_RETURN_NOT_OK(synth->ReleaseRound(
        std::span<const int64_t>(z_rows).subspan(tau * width, width)));
  }
  return synth;
}

}  // namespace core
}  // namespace longdp
