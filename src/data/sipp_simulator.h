// SIPP-like survey simulator.
//
// The paper's Section 5 evaluates on a preprocessed extract of the U.S.
// Census Bureau's Survey of Income and Program Participation (SIPP) 2021:
// 23,374 households x 12 monthly binary poverty indicators (THINCPOVT2 < 1).
// That extract cannot be redistributed or downloaded here, so this module
// provides the documented substitution (see DESIGN.md section 3): a
// two-component mixture of per-household Markov poverty trajectories —
// "chronic" households that are almost always in poverty and "transient"
// households with short spells — calibrated so that the ground-truth
// statistics the paper's figures plot land where the paper's X marks do:
//
//   * monthly poverty rate               ~ 0.11
//   * quarterly "poverty >= 1 month"     ~ 0.15       (Fig 1, topmost series)
//   * quarterly "poverty >= 2 months"    ~ 0.10
//   * quarterly ">= 2 consecutive"       ~ 0.09
//   * quarterly "all three months"       ~ 0.07       (Fig 1, lowest series)
//   * ">= 3 months in poverty" by Dec    ~ 0.10       (Fig 2)
//
// Because both of the paper's algorithms have data-independent error
// distributions (the noise does not depend on the data; Theorem 3.2), the
// empirical error spread of every reproduced figure depends only on
// (n, T, k, rho), which we match exactly. The simulator only needs to place
// the ground-truth marks, which the calibration above does.
//
// Use data::LoadSippBitsCsv (sipp_csv.h) to run the benches on the real
// extract if you have it.

#ifndef LONGDP_DATA_SIPP_SIMULATOR_H_
#define LONGDP_DATA_SIPP_SIMULATOR_H_

#include "data/generators.h"
#include "data/longitudinal_dataset.h"
#include "util/substream.h"

namespace longdp {
namespace data {

struct SippOptions {
  /// Matches the paper's final sample: N = 23374 households, T = 12 months.
  int64_t num_households = 23374;
  int64_t horizon = 12;

  /// Share of chronically poor households.
  double chronic_share = 0.07;
  /// Chronic households: nearly always in poverty, rare exits.
  MarkovParams chronic{/*initial_rate=*/0.92, /*entry_prob=*/0.60,
                       /*exit_prob=*/0.04};
  /// Transient households: rare entries, quick exits.
  MarkovParams transient{/*initial_rate=*/0.035, /*entry_prob=*/0.02,
                         /*exit_prob=*/0.45};
};

/// Generates a SIPP-like dataset with the calibration above.
Result<LongitudinalDataset> SimulateSipp(const SippOptions& options,
                                         util::SubstreamRng* rng);

/// SimulateSipp with default options.
Result<LongitudinalDataset> SimulateSippDefault(util::SubstreamRng* rng);

/// Keyed overload: household i's round-t indicator draws from the
/// addressable substream (seed, kDataset, t, i), so generation shards
/// across `pool` (may be null) with a bit-identical dataset at any shard
/// or thread count — the path the million-household scaling benches use.
Result<LongitudinalDataset> SimulateSipp(const SippOptions& options,
                                         uint64_t seed,
                                         util::ThreadPool* pool = nullptr);

/// SimulateSipp keyed overload with default options.
Result<LongitudinalDataset> SimulateSippDefault(uint64_t seed,
                                                util::ThreadPool* pool =
                                                    nullptr);

}  // namespace data
}  // namespace longdp

#endif  // LONGDP_DATA_SIPP_SIMULATOR_H_
