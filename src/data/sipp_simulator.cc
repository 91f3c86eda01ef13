#include "data/sipp_simulator.h"

namespace longdp {
namespace data {

Result<LongitudinalDataset> SimulateSipp(const SippOptions& options,
                                         util::SubstreamRng* rng) {
  if (!(options.chronic_share >= 0.0 && options.chronic_share <= 1.0)) {
    return Status::InvalidArgument("chronic_share must be in [0,1]");
  }
  std::vector<MixtureComponent> components = {
      {options.chronic_share, options.chronic},
      {1.0 - options.chronic_share, options.transient},
  };
  return SubpopulationMixture(options.num_households, options.horizon,
                              components, rng);
}

Result<LongitudinalDataset> SimulateSippDefault(util::SubstreamRng* rng) {
  return SimulateSipp(SippOptions{}, rng);
}

Result<LongitudinalDataset> SimulateSipp(const SippOptions& options,
                                         uint64_t seed,
                                         util::ThreadPool* pool) {
  if (!(options.chronic_share >= 0.0 && options.chronic_share <= 1.0)) {
    return Status::InvalidArgument("chronic_share must be in [0,1]");
  }
  std::vector<MixtureComponent> components = {
      {options.chronic_share, options.chronic},
      {1.0 - options.chronic_share, options.transient},
  };
  return SubpopulationMixture(options.num_households, options.horizon,
                              components, seed, pool);
}

Result<LongitudinalDataset> SimulateSippDefault(uint64_t seed,
                                                util::ThreadPool* pool) {
  return SimulateSipp(SippOptions{}, seed, pool);
}

}  // namespace data
}  // namespace longdp
