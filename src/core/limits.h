// Input limits shared by the synthesizers' Create functions.

#ifndef LONGDP_CORE_LIMITS_H_
#define LONGDP_CORE_LIMITS_H_

#include <cstdint>
#include <string>

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
inline constexpr int64_t kMaxHorizon = (int64_t{1} << kMaxPlanes) - 1;

/// InvalidArgument if `horizon` exceeds kMaxHorizon.
inline Status CheckHorizonCap(int64_t horizon) {
  if (horizon > kMaxHorizon) {
    return Status::InvalidArgument("horizon T must be below 2^" +
                                   std::to_string(kMaxPlanes) + ", got " +
                                   std::to_string(horizon));
  }
  return Status::OK();
}

}  // namespace core
}  // namespace longdp

#endif  // LONGDP_CORE_LIMITS_H_
