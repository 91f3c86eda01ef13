// Padding debiaser (paper Section 3.2, Corollary 3.3 discussion).
//
// Algorithm 1 pads every width-k histogram bin with n_pad fake records, so a
// raw proportion computed on the synthetic data is biased upward. The
// padding parameters (n_pad, k) are public, so an analyst can subtract the
// query's answer on the padding data:
//
//   debiased count  =  count on synthetic data  -  n_pad * (number of
//                      width-k patterns the query matches)
//
// and normalize by the true population size n (also public in the paper's
// setting). For a width-k' predicate lifted to width k, the padding matches
// 2^(k-k') * |{k'-patterns satisfying the predicate}| bins.

#ifndef LONGDP_QUERY_DEBIAS_H_
#define LONGDP_QUERY_DEBIAS_H_

#include <cstdint>
#include <span>

#include "query/window_query.h"
#include "util/status.h"

namespace longdp {
namespace query {

/// Public padding facts of a fixed-window synthesizer release.
struct PaddingSpec {
  int synth_width = 0;   ///< the synthesizer's k
  int64_t npad = 0;      ///< fake records added per width-k bin
  int64_t true_n = 0;    ///< original population size n
};

/// The number of synthetic records the padding alone contributes to the
/// predicate's count (n_pad per matching extended width-k bin).
/// InvalidArgument if the product overflows int64 — an overflow would
/// otherwise wrap into a garbage (possibly negative) debiased estimate.
Result<int64_t> PaddingCount(const WindowPredicate& pred,
                             const PaddingSpec& spec);

/// Debiased proportion estimate: (synthetic_count - PaddingCount) / true_n.
/// InvalidArgument if the subtraction overflows int64 (a forged count).
Result<double> DebiasedFraction(int64_t synthetic_count,
                                const WindowPredicate& pred,
                                const PaddingSpec& spec);

/// Debiased fraction of one released categorical bin,
/// (bin_count - npad) / true_n, subtracted in int64 and then cast, as the
/// synthesizer's own CategoricalWindowSynthesizer::DebiasedBinFraction
/// does. InvalidArgument if true_n <= 0 or the subtraction overflows int64.
Result<double> DebiasedBinFraction(int64_t bin_count, int64_t npad,
                                   int64_t true_n);

/// The synthetic population of a released histogram: the sum of its bins.
/// Released values read from disk are not trusted, so a sum that overflows
/// int64 is InvalidArgument rather than a wrapped population.
Result<int64_t> HistogramPopulation(std::span<const int64_t> hist);

/// Raw (biased) proportion: synthetic_count / synthetic_population. Provided
/// for symmetry so experiment code reads declaratively. InvalidArgument when
/// synthetic_population <= 0: an empty (or corrupt) release must surface as
/// an error, not masquerade as 0% prevalence.
Result<double> BiasedFraction(int64_t synthetic_count,
                              int64_t synthetic_population);

/// Padding contribution to a real-weighted linear query: n_pad * sum_s w_s.
Result<double> PaddingValue(const LinearWindowQuery& q,
                            const PaddingSpec& spec);

/// Debiased value of a linear query: (value_on_synth - PaddingValue)/true_n,
/// where value_on_synth is the unnormalized sum over synthetic records.
Result<double> DebiasedLinearValue(double synthetic_value,
                                   const LinearWindowQuery& q,
                                   const PaddingSpec& spec);

}  // namespace query
}  // namespace longdp

#endif  // LONGDP_QUERY_DEBIAS_H_
