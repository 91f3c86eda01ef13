#include "stream/counter_factory.h"

#include <limits>

#include "stream/honaker_counter.h"
#include "stream/matrix_counter.h"
#include "stream/naive_counters.h"
#include "stream/tree_counter.h"

namespace longdp {
namespace stream {

namespace {

template <typename Counter>
std::unique_ptr<StreamCounter> Build(int64_t horizon, double rho,
                                     const util::SubstreamRng& stream) {
  return std::make_unique<Counter>(horizon, rho, stream);
}

std::unique_ptr<StreamCounter> BuildLaplaceTree(
    int64_t horizon, double rho, const util::SubstreamRng& stream) {
  return std::make_unique<TreeCounter>(horizon, rho, stream,
                                       dp::NoiseSampler::Kind::kLaplace);
}

struct Entry {
  const char* name;
  int64_t max_horizon;
  StreamCounterFactory::BuildFn build;
};

constexpr int64_t kAnyHorizon = std::numeric_limits<int64_t>::max();

// The registry. Its order is RegisteredCounterNames()' order, which
// bench/micro_primitives indexes. constexpr (no std::string) so static
// initializers, such as test registration, can read it safely.
constexpr Entry kCounters[] = {
    {"tree", kAnyHorizon, &Build<TreeCounter>},
    {"honaker", kAnyHorizon, &Build<HonakerCounter>},
    {"input-perturbation", kAnyHorizon, &Build<InputPerturbationCounter>},
    {"recompute", kAnyHorizon, &Build<RecomputeCounter>},
    {"laplace-tree", kAnyHorizon, &BuildLaplaceTree},
    // The Toeplitz convolution costs O(T^2) per stream.
    {"sqrt-matrix", int64_t{1} << 16, &Build<MatrixCounter>},
};

}  // namespace

Result<std::unique_ptr<StreamCounter>> StreamCounterFactory::Create(
    int64_t horizon, double rho, const util::SubstreamRng& stream) const {
  if (horizon < 1) {
    return Status::InvalidArgument("stream horizon must be >= 1, got " +
                                   std::to_string(horizon));
  }
  if (horizon > max_horizon_) {
    return Status::InvalidArgument(
        name_ + " counter supports horizons up to T=" +
        std::to_string(max_horizon_) + ", got " + std::to_string(horizon) +
        "; use the tree counter for longer streams");
  }
  if (!(rho > 0.0)) {
    return Status::InvalidArgument("stream counter rho must be > 0");
  }
  return build_(horizon, rho, stream);
}

Result<std::shared_ptr<const StreamCounterFactory>> MakeCounterFactory(
    const std::string& name) {
  for (const Entry& e : kCounters) {
    if (name == e.name) {
      return std::make_shared<const StreamCounterFactory>(e.name,
                                                          e.max_horizon,
                                                          e.build);
    }
  }
  std::string known;
  for (const Entry& e : kCounters) {
    known += (known.empty() ? "" : ", ") + std::string(e.name);
  }
  return Status::NotFound("unknown stream counter '" + name +
                          "'; known: " + known);
}

std::shared_ptr<const StreamCounterFactory> DefaultCounterFactory() {
  // One shared instance, so a synthesizer that names no counter allocates
  // nothing for it: a small block held for a synthesizer's lifetime moves
  // where glibc places the round buffers, which alone cost durable_1m
  // ~8% of its session time.
  static const std::shared_ptr<const StreamCounterFactory> kDefault =
      MakeCounterFactory("tree").value();
  return kDefault;
}

std::vector<std::string> RegisteredCounterNames() {
  std::vector<std::string> names;
  for (const Entry& e : kCounters) names.emplace_back(e.name);
  return names;
}

}  // namespace stream
}  // namespace longdp
