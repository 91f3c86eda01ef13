// Must produce zero findings: draws flow through util::SubstreamRng, the
// unordered map is only probed (never iterated), and every Status is
// consumed.
#include "util/status.h"
#include "util/substream.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace longdp {

Status SaveThing(const std::string& path);

Status UseEverything(util::SubstreamRng* rng) {
  std::unordered_map<std::string, int> lookup;
  lookup["a"] = 1;
  const bool hit = lookup.count("a") > 0;
  const uint64_t draw = rng->UniformInt(hit ? 10 : 20);
  LONGDP_RETURN_NOT_OK(SaveThing("out-" + std::to_string(draw) + ".csv"));
  Status st = SaveThing("second.csv");
  if (!st.ok()) return st;
  return Status::OK();
}

}  // namespace longdp
