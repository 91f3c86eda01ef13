#include "query/debias.h"

namespace longdp {
namespace query {

namespace {
Status ValidateSpec(const PaddingSpec& spec, int pred_width) {
  LONGDP_RETURN_NOT_OK(util::ValidateWindow(spec.synth_width));
  if (pred_width > spec.synth_width) {
    return Status::InvalidArgument(
        "cannot debias a query wider than the synthesizer window");
  }
  if (spec.npad < 0) {
    return Status::InvalidArgument("npad must be >= 0");
  }
  if (spec.true_n <= 0) {
    return Status::InvalidArgument("true population size must be > 0");
  }
  return Status::OK();
}
}  // namespace

Result<int64_t> PaddingCount(const WindowPredicate& pred,
                             const PaddingSpec& spec) {
  LONGDP_RETURN_NOT_OK(ValidateSpec(spec, pred.width()));
  const int64_t lift = static_cast<int64_t>(
      util::NumPatterns(spec.synth_width - pred.width()));
  // npad * lift * matching can exceed int64 for large public padding and
  // wide windows; an unchecked wrap here would silently debias by a garbage
  // (possibly negative) pad. Checked multiplies turn that into a hard error.
  int64_t pad = 0;
  if (__builtin_mul_overflow(spec.npad, lift, &pad) ||
      __builtin_mul_overflow(pad, pred.MatchingPatternCount(), &pad)) {
    return Status::InvalidArgument(
        "padding count overflows int64 (npad=" + std::to_string(spec.npad) +
        ", lift=2^" + std::to_string(spec.synth_width - pred.width()) +
        ", matching=" + std::to_string(pred.MatchingPatternCount()) + ")");
  }
  return pad;
}

Result<double> DebiasedFraction(int64_t synthetic_count,
                                const WindowPredicate& pred,
                                const PaddingSpec& spec) {
  LONGDP_ASSIGN_OR_RETURN(int64_t pad, PaddingCount(pred, spec));
  int64_t debiased = 0;
  if (__builtin_sub_overflow(synthetic_count, pad, &debiased)) {
    return Status::InvalidArgument("debiased count overflows int64");
  }
  return static_cast<double>(debiased) / static_cast<double>(spec.true_n);
}

Result<double> DebiasedBinFraction(int64_t bin_count, int64_t npad,
                                   int64_t true_n) {
  if (true_n <= 0) {
    return Status::InvalidArgument("released true_n must be > 0");
  }
  int64_t debiased = 0;
  if (__builtin_sub_overflow(bin_count, npad, &debiased)) {
    return Status::InvalidArgument("debiased bin count overflows int64");
  }
  return static_cast<double>(debiased) / static_cast<double>(true_n);
}

Result<int64_t> HistogramPopulation(std::span<const int64_t> hist) {
  int64_t population = 0;
  for (const int64_t c : hist) {
    if (__builtin_add_overflow(population, c, &population)) {
      return Status::InvalidArgument("histogram population overflows int64");
    }
  }
  return population;
}

Result<double> BiasedFraction(int64_t synthetic_count,
                              int64_t synthetic_population) {
  if (synthetic_population <= 0) {
    // Previously this silently answered 0.0, which made an empty or corrupt
    // release indistinguishable from genuine 0% prevalence.
    return Status::InvalidArgument(
        "synthetic population must be > 0 (got " +
        std::to_string(synthetic_population) + ")");
  }
  return static_cast<double>(synthetic_count) /
         static_cast<double>(synthetic_population);
}

Result<double> PaddingValue(const LinearWindowQuery& q,
                            const PaddingSpec& spec) {
  LONGDP_RETURN_NOT_OK(ValidateSpec(spec, q.width()));
  if (q.width() != spec.synth_width) {
    return Status::InvalidArgument(
        "linear queries must be expressed over the synthesizer width k");
  }
  double sum_w = 0.0;
  for (double w : q.weights()) sum_w += w;
  return static_cast<double>(spec.npad) * sum_w;
}

Result<double> DebiasedLinearValue(double synthetic_value,
                                   const LinearWindowQuery& q,
                                   const PaddingSpec& spec) {
  LONGDP_ASSIGN_OR_RETURN(double pad, PaddingValue(q, spec));
  return (synthetic_value - pad) / static_cast<double>(spec.true_n);
}

}  // namespace query
}  // namespace longdp
