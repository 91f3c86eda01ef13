#include "persist/bindings.h"

#include <sstream>

namespace longdp {
namespace persist {

namespace {
std::string HistogramRecord(int64_t t, bool has_release,
                            const std::vector<int64_t>& hist) {
  std::ostringstream out;
  out << t;
  if (!has_release) {
    // Buffering rounds (t < k) publish nothing; the frame still exists so
    // WAL index i always holds round i+1.
    out << " -";
    return out.str();
  }
  for (int64_t h : hist) out << " " << h;
  return out.str();
}

/// Both window synthesizers publish their synthetic histogram.
template <typename Synth>
std::string WindowRecord(const Synth& synth) {
  return HistogramRecord(synth.t(), synth.has_release(),
                         synth.SyntheticHistogram());
}
}  // namespace

std::string CumulativeTraits::ReleaseRecord(const Synth& synth) {
  return HistogramRecord(synth.t(), /*has_release=*/true,
                         synth.released_thresholds());
}

std::string FixedWindowTraits::ReleaseRecord(const Synth& synth) {
  return WindowRecord(synth);
}

std::string CategoricalTraits::ReleaseRecord(const Synth& synth) {
  return WindowRecord(synth);
}

}  // namespace persist
}  // namespace longdp
