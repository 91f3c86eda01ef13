// Input limits shared by the synthesizers' Create functions and their first
// releases.

#ifndef LONGDP_CORE_LIMITS_H_
#define LONGDP_CORE_LIMITS_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "stream/state_io.h"
#include "util/simd/simd.h"
#include "util/status.h"

namespace longdp {
namespace core {

/// The util::simd plane kernels' cap. The fixed-window synthesizer keeps
/// one plane per window round, so it caps window_k here.
using util::simd::kMaxPlanes;

/// Horizons are capped below 2^kMaxPlanes rounds. The cumulative
/// synthesizer keeps each record's true prefix weight (at most T) as
/// bit_width(T) planes, which this keeps within kMaxPlanes. The window
/// synthesizers share the cap: a checkpoint taken before the first release
/// carries nothing that backs its horizon, and the first release sizes the
/// synthetic history by it, so every loader validates it through Create.
using util::simd::kMaxHorizon;

/// InvalidArgument if `horizon` exceeds kMaxHorizon.
inline Status CheckHorizonCap(int64_t horizon) {
  if (horizon > kMaxHorizon) {
    return Status::InvalidArgument("horizon T must be below 2^" +
                                   std::to_string(kMaxPlanes) + ", got " +
                                   std::to_string(horizon));
  }
  return Status::OK();
}

/// The smallest total zCDP budget a synthesizer accepts. Every noise scale
/// grows as rho shrinks, and dp::NoiseSampler draws offsets u + t * v with
/// t = floor(scale) + 1 held in a uint64 and in doubles, so the scale must
/// stay far below 2^52 for those to be exact. At kMaxHorizon and this rho
/// the largest scale of any registered counter, under either budget split,
/// is the recompute counter's sigma ~ 4.6e10 under the uniform split (the
/// b = 1 counter: sigma^2 = T / (2 rho / T)); the other four counters
/// peak between 1.1e10 and 2.1e10, all under the cubic-log split, and the
/// window synthesizers' histogram noise at 1.8e8. That leaves a margin of about
/// 2^52 / 4.6e10 ~ 1e5: a magnitude reaches 2^52 only once the geometric
/// part v passes ~1e5, which has probability about e^-1e5. Far smaller
/// budgets once made t overflow and a draw never return. A rho this small
/// releases nothing useful; the floor exists to keep hostile input (a
/// forged checkpoint field decoding as a denormal) from hanging a load.
inline constexpr double kMinRho = 1e-12;

/// InvalidArgument unless kMinRho <= rho (NaN fails; +infinity, the
/// zero-noise path, passes).
inline Status CheckBudget(double rho) {
  if (!(rho >= kMinRho)) {
    char message[64];
    std::snprintf(message, sizeof(message), "rho must be >= %g, got %g",
                  kMinRho, rho);
    return Status::InvalidArgument(message);
  }
  return Status::OK();
}

/// Clamps a noisy initial census to non-negative counts, adding one to
/// *clamps per clamped bin, and refuses with OutOfRange a total past
/// stream::state_io::kMaxRecords (the largest cohort a checkpoint holds)
/// before any record is allocated for it. A small rho makes the padding and
/// the noise, and so the census, enormous.
inline Status ClampCensus(std::vector<int64_t>* census, int64_t* clamps) {
  constexpr int64_t kCap = stream::state_io::kMaxRecords;
  int64_t total = 0;
  for (int64_t& c : *census) {
    if (c < 0) {
      c = 0;
      ++*clamps;
    }
    if (c > kCap - total) {
      return Status::OutOfRange(
          "initial census exceeds 2^32 - 1 synthetic records; rho is too "
          "small for this window");
    }
    total += c;
  }
  return Status::OK();
}

}  // namespace core
}  // namespace longdp

#endif  // LONGDP_CORE_LIMITS_H_
