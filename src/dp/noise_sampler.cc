#include "dp/noise_sampler.h"

#include <algorithm>
#include <cmath>

#include "util/simd/simd.h"

namespace longdp {
namespace dp {

namespace {

// Offsets beyond this are computed inline (identical division) instead of
// from the table; bounds the constructor cost for enormous scales.
constexpr uint64_t kMaxGammaTable = 4096;

// SubstreamRng::UniformDouble's exact mapping of a raw word to [0, 1).
inline double ToUnitDouble(uint64_t word) {
  return static_cast<double>(word >> 11) * 0x1.0p-53;
}

}  // namespace

/// Chunked reader of the substream at (key, cursor): words are produced
/// kChunk at a time by the SIMD bulk block function and consumed one at a
/// time by the accept/reject logic. Overshooting the chain's actual
/// consumption is harmless — substream words are addressed, not destroyed —
/// and the owner advances the real cursor by consumed(), not by what was
/// prefetched.
struct NoiseSampler::WordBuffer {
  static constexpr size_t kChunk = 32;

  WordBuffer(uint64_t key, uint64_t cursor)
      : key_(key), next_cursor_(cursor) {}

  uint64_t Next() {
    if (pos_ == len_) {
      util::simd::FillStreamWords(key_, next_cursor_, buf_, kChunk);
      next_cursor_ += kChunk;
      pos_ = 0;
      len_ = kChunk;
    }
    ++consumed_;
    return buf_[pos_++];
  }

  uint64_t consumed() const { return consumed_; }

 private:
  uint64_t key_;
  uint64_t next_cursor_;
  uint64_t consumed_ = 0;
  size_t pos_ = 0;
  size_t len_ = 0;
  uint64_t buf_[kChunk];
};

NoiseSampler::NoiseSampler(Kind kind, double param)
    : kind_(kind), param_(param), degenerate_(!(param > 0.0)) {
  if (degenerate_) return;
  if (kind_ == Kind::kGaussian) {
    // CKS'20 Alg. 3: reject from discrete Laplace(t), t = floor(sigma) + 1.
    const double sigma = std::sqrt(param_);
    s_ = std::floor(sigma) + 1.0;
    sigma2_over_t_ = param_ / s_;
    two_sigma2_ = 2.0 * param_;
  } else {
    s_ = param_;
  }
  t_ = static_cast<uint64_t>(std::floor(s_)) + 1;
  threshold_ = (0 - t_) % t_;
  // The geometric-tail gamma t/s > 1 (mathematically; huge s can round the
  // ratio to exactly 1.0, in which case the one-shot chain takes its <= 1
  // branch — mirror that split so the word stream matches).
  const double geo_gamma = static_cast<double>(t_) / s_;
  if (geo_gamma <= 1.0) {
    geo_whole_ = 0;
    geo_frac_ = geo_gamma;
  } else {
    const double whole = std::floor(geo_gamma);
    geo_whole_ = static_cast<int64_t>(whole);
    geo_frac_ = geo_gamma - whole;
  }
  const uint64_t table = std::min<uint64_t>(t_, kMaxGammaTable);
  gamma_u_.resize(static_cast<size_t>(table));
  for (uint64_t u = 0; u < table; ++u) {
    // The same division the one-shot chain performs per attempt — cached,
    // not rewritten (no reciprocal multiply), so results are bit-equal.
    gamma_u_[static_cast<size_t>(u)] =
        static_cast<double>(u) / s_;
  }
}

// Mirrors SampleBernoulliExpNeg's gamma <= 1 branch (the k-loop of CKS'20
// Alg. 1), including SubstreamRng::Bernoulli's no-word shortcuts: p >= 1
// succeeds without consuming a word (reachable at k == 1 with gamma == 1.0).
bool NoiseSampler::ExpNegLE1(double gamma, WordBuffer& wb) const {
  if (gamma <= 0.0) return true;
  uint64_t k = 1;
  for (;;) {
    const double p = gamma / static_cast<double>(k);
    if (p < 1.0) {
      if (!(ToUnitDouble(wb.Next()) < p)) break;
    }
    ++k;
  }
  return (k % 2) == 1;
}

// Mirrors SampleBernoulliExpNeg for arbitrary gamma >= 0: exp(-gamma) =
// exp(-1)^floor(gamma) * exp(-(gamma - floor(gamma))).
bool NoiseSampler::ExpNegGeneral(double gamma, WordBuffer& wb) const {
  if (gamma <= 0.0) return true;
  if (gamma <= 1.0) return ExpNegLE1(gamma, wb);
  const double whole = std::floor(gamma);
  for (double i = 0; i < whole; ++i) {
    if (!ExpNegLE1(1.0, wb)) return false;
  }
  return ExpNegLE1(gamma - whole, wb);
}

// Bernoulli(exp(-t/s)) with the whole/fraction split precomputed.
bool NoiseSampler::ExpNegGeo(WordBuffer& wb) const {
  for (int64_t i = 0; i < geo_whole_; ++i) {
    if (!ExpNegLE1(1.0, wb)) return false;
  }
  return ExpNegLE1(geo_frac_, wb);
}

int64_t NoiseSampler::DrawLaplace(WordBuffer& wb) const {
  for (;;) {
    // Offset U ~ Uniform{0..t-1}: SubstreamRng::UniformInt's exact rejection
    // loop.
    uint64_t u;
    for (;;) {
      const uint64_t r = wb.Next();
      if (r >= threshold_) {
        u = r % t_;
        break;
      }
    }
    const double gamma_u = u < gamma_u_.size()
                               ? gamma_u_[static_cast<size_t>(u)]
                               : static_cast<double>(u) / s_;
    // u <= floor(s), so gamma_u <= 1 always: the LE1 branch suffices.
    if (!ExpNegLE1(gamma_u, wb)) continue;
    uint64_t v = 0;
    while (ExpNegGeo(wb)) ++v;
    const uint64_t magnitude = u + t_ * v;
    const bool negative = (wb.Next() >> 63) != 0;  // SubstreamRng::Coin
    if (negative && magnitude == 0) continue;  // avoid double-counting zero
    return negative ? -static_cast<int64_t>(magnitude)
                    : static_cast<int64_t>(magnitude);
  }
}

int64_t NoiseSampler::DrawGaussian(WordBuffer& wb) const {
  for (;;) {
    const int64_t y = DrawLaplace(wb);
    const double ay = std::fabs(static_cast<double>(y));
    const double diff = ay - sigma2_over_t_;
    const double gamma = diff * diff / two_sigma2_;
    if (ExpNegGeneral(gamma, wb)) return y;
  }
}

int64_t NoiseSampler::Draw(util::SubstreamRng* stream) const {
  if (degenerate_) return 0;
  WordBuffer wb(stream->key(), stream->cursor());
  const int64_t value =
      kind_ == Kind::kGaussian ? DrawGaussian(wb) : DrawLaplace(wb);
  stream->set_cursor(stream->cursor() + wb.consumed());
  return value;
}

void NoiseSampler::FillLeaves(const util::SubstreamRng& parent, size_t count,
                              int64_t* out, util::ThreadPool* pool) const {
  if (degenerate_) {
    std::fill(out, out + count, int64_t{0});
    return;
  }
  util::ShardedFor(pool, static_cast<int64_t>(count),
                   [&](int /*shard*/, int64_t begin, int64_t end) {
                     for (int64_t i = begin; i < end; ++i) {
                       WordBuffer wb(
                           parent.Leaf(static_cast<uint64_t>(i)).key(), 0);
                       out[i] = kind_ == Kind::kGaussian ? DrawGaussian(wb)
                                                         : DrawLaplace(wb);
                     }
                   });
}

}  // namespace dp
}  // namespace longdp
