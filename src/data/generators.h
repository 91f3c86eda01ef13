// Synthetic workload generators for the paper's simulated experiments
// (Appendix C.1) and for stress/property testing.
//
// All generators produce a full LongitudinalDataset from an explicit
// util::SubstreamRng (or a seed that keys one), so experiments are
// reproducible. Each corresponds to a distinct stochastic model of
// individual trajectories:
//
//  * ExtremeAllOnes   — every bit 1 (Appendix C.1's "rather extreme" data):
//                       concentrates all mass in one histogram bin, the
//                       worst case for relative error on small bins.
//  * BernoulliIid     — each bit i.i.d. Bernoulli(p); null model.
//  * TwoStateMarkov   — per-user 2-state chain with entry probability
//                       (0 -> 1) and exit probability (1 -> 0); the natural
//                       model for poverty/unemployment spells.
//  * SubpopulationMix — users split across components, each with its own
//                       Markov parameters (e.g. chronic vs transient
//                       poverty); the Joseph-Roth-Ullman-Waggoner style
//                       evolving-subpopulation setting.

#ifndef LONGDP_DATA_GENERATORS_H_
#define LONGDP_DATA_GENERATORS_H_

#include <vector>

#include "data/longitudinal_dataset.h"
#include "util/substream.h"

namespace longdp {
namespace util {
class ThreadPool;
}  // namespace util

namespace data {

/// Every individual reports 1 in every round.
Result<LongitudinalDataset> ExtremeAllOnes(int64_t num_users, int64_t horizon);

/// Every individual reports 0 in every round.
Result<LongitudinalDataset> ExtremeAllZeros(int64_t num_users,
                                            int64_t horizon);

/// Each bit independently Bernoulli(p). Draws sequentially from `rng`.
Result<LongitudinalDataset> BernoulliIid(int64_t num_users, int64_t horizon,
                                         double p, util::SubstreamRng* rng);

/// Keyed overload: the bit of user i at round t draws from the addressable
/// substream (seed, kDataset, t, i), so generation shards across `pool`
/// (may be null) and the dataset is bit-identical at any shard or thread
/// count — the scale-out path for multi-million-user benchmarks.
Result<LongitudinalDataset> BernoulliIid(int64_t num_users, int64_t horizon,
                                         double p, uint64_t seed,
                                         util::ThreadPool* pool = nullptr);

/// Parameters of a two-state (0 = out, 1 = in) Markov trajectory.
struct MarkovParams {
  double initial_rate = 0.1;  ///< Pr[x^1 = 1]
  double entry_prob = 0.05;   ///< Pr[x^{t+1} = 1 | x^t = 0]
  double exit_prob = 0.3;     ///< Pr[x^{t+1} = 0 | x^t = 1]
};

/// Validates probabilities are in [0, 1].
Status ValidateMarkovParams(const MarkovParams& params);

/// Per-user independent two-state Markov chains.
Result<LongitudinalDataset> TwoStateMarkov(int64_t num_users, int64_t horizon,
                                           const MarkovParams& params,
                                           util::SubstreamRng* rng);

/// Keyed overload (see BernoulliIid above for the addressing contract).
Result<LongitudinalDataset> TwoStateMarkov(int64_t num_users, int64_t horizon,
                                           const MarkovParams& params,
                                           uint64_t seed,
                                           util::ThreadPool* pool = nullptr);

/// One mixture component: a weight share and its Markov parameters.
struct MixtureComponent {
  double share = 0.0;  ///< fraction of users; shares must sum to ~1
  MarkovParams params;
};

/// Users are assigned to components by share (deterministically by index,
/// remainder to the last component) and evolve independently.
Result<LongitudinalDataset> SubpopulationMixture(
    int64_t num_users, int64_t horizon,
    const std::vector<MixtureComponent>& components, util::SubstreamRng* rng);

/// Keyed overload (see BernoulliIid above for the addressing contract).
Result<LongitudinalDataset> SubpopulationMixture(
    int64_t num_users, int64_t horizon,
    const std::vector<MixtureComponent>& components, uint64_t seed,
    util::ThreadPool* pool = nullptr);

}  // namespace data
}  // namespace longdp

#endif  // LONGDP_DATA_GENERATORS_H_
