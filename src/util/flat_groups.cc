#include "util/flat_groups.h"

namespace longdp {
namespace util {

void FlatGroups::Reset(size_t num_groups) {
  cursor_.assign(num_groups, 0);
  offsets_.assign(num_groups + 1, 0);
}

void FlatGroups::BuildOffsets() {
  int64_t running = 0;
  const size_t groups = cursor_.size();
  for (size_t g = 0; g < groups; ++g) {
    offsets_[g] = running;
    running += cursor_[g];
    // Arm the claim cursor at the group's start.
    cursor_[g] = offsets_[g];
  }
  offsets_[groups] = running;
  records_.resize(static_cast<size_t>(running));
}

}  // namespace util
}  // namespace longdp
