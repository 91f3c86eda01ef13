// Must produce longdp-substream-discipline findings on the three marked
// lines: engines minted from raw keys by SubstreamRng::FromState — named,
// re-minted from another engine's key, and a temporary. (Lint data only.)
#include "util/substream.h"

namespace longdp {

uint64_t DrawOutsideTheFactory() {
  util::SubstreamRng rng = util::SubstreamRng::FromState(42, 0);  // named
  auto forked = util::SubstreamRng::FromState(rng.key(), 9);  // second mint
  return forked.Next() ^ util::SubstreamRng::FromState(7, 0).Next();  // temp
}

}  // namespace longdp
