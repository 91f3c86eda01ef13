// Inputs every workload generates from its seed: the keyed SIPP-like
// poverty panel, the keyed 3-state employment chain that feeds the
// categorical synthesizer, and the synthesizer settings shared by all
// workloads (T = 12, k = 3, A = 3, rho = 0.005).

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "core/categorical_synthesizer.h"
#include "core/cumulative_synthesizer.h"
#include "core/fixed_window_synthesizer.h"
#include "core/release_log.h"
#include "data/longitudinal_dataset.h"
#include "query/window_query.h"
#include "util/status.h"

namespace longdp {
namespace util {
class ThreadPool;
}  // namespace util
}  // namespace longdp

namespace perfbench {

inline constexpr int64_t kHorizon = 12;
inline constexpr int kWindowK = 3;
inline constexpr int kAlphabet = 3;
inline constexpr double kRho = 0.005;
/// SIPP 2021 extract size used by the paper.
inline constexpr int64_t kSippHouseholds = 23374;

enum class Synth { kFixedWindow = 0, kCumulative = 1, kCategorical = 2 };
inline constexpr Synth kAllSynths[] = {Synth::kFixedWindow, Synth::kCumulative,
                                       Synth::kCategorical};
const char* SynthName(Synth synth);

/// A seed for (purpose, index) under the workload seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t purpose, uint64_t index);

struct Inputs {
  longdp::data::LongitudinalDataset sipp;  ///< n x T poverty bits
  /// Byte-per-bit copies of sipp's rounds (the durable hooks' input);
  /// empty unless requested.
  std::vector<std::vector<uint8_t>> bits;
  /// Employment state per household and round: 0 employed, 1 unemployed,
  /// 2 out of the labour force.
  std::vector<std::vector<uint8_t>> employment;
};

/// Generates the inputs for `n` households. Bit-identical at any lane
/// count: every draw is keyed by (seed, round, block).
Result<Inputs> MakeInputs(int64_t n, uint64_t seed,
                          longdp::util::ThreadPool* pool, bool with_bytes);

longdp::core::FixedWindowSynthesizer::Options FixedWindowOptions(
    uint64_t seed, longdp::util::ThreadPool* pool);
longdp::core::CumulativeSynthesizer::Options CumulativeOptions(
    uint64_t seed, longdp::util::ThreadPool* pool);
longdp::core::CategoricalWindowSynthesizer::Options CategoricalOptions(
    uint64_t seed, longdp::util::ThreadPool* pool);

/// Extends a digest with every release of a log (times and columns).
uint32_t DigestLog(uint32_t crc, const longdp::core::ReleaseLog& log);

/// Field-for-field equality of two release logs.
bool LogsEqual(const longdp::core::ReleaseLog& a,
               const longdp::core::ReleaseLog& b);

/// The paper's quarterly window queries (Figure 1): at least one month, at
/// least two months, two consecutive months, all three months in poverty.
std::vector<longdp::query::WindowPredicatePtr> QuarterlyPredicates();
/// Release times at which the quarterly queries are answered.
inline constexpr int64_t kQuarterEnds[] = {3, 6, 9, 12};
/// Cumulative thresholds answered every round: ">= b months so far".
inline constexpr int64_t kCumulativeThresholds[] = {1, 2, 3};
/// Categorical codes answered every releasing round: three months
/// employed, unemployed, out of the labour force (base-3 EEE, UUU, OOO).
inline constexpr uint64_t kCategoricalCodes[] = {0, 13, 26};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
