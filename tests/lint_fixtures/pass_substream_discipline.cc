// Must produce zero longdp-substream-discipline findings: engines are only
// consumed through pointers/references, named in template arguments and
// qualifications, or constructed as keyed SubstreamRng substreams.
#include <memory>

#include "util/substream.h"

namespace longdp {

class SubstreamRng;  // forward declaration is not a construction

double Consume(util::SubstreamRng* rng, util::SubstreamRng& other) {
  util::SubstreamRng stream(1, util::substream::kGeneric);
  const util::SubstreamRng leaf = stream.Derive(3).Leaf(5);
  std::unique_ptr<util::SubstreamRng> owned;
  (void)owned;
  return rng->UniformDouble() + other.UniformDouble() +
         static_cast<double>(leaf.key() % 97);
}

}  // namespace longdp
