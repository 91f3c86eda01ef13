// The stream counter registry: one table, in counter_factory.cc, maps each
// counter name to how it is built, so experiment configs, CLI flags and
// checkpoints select a counter by string.

#ifndef LONGDP_STREAM_COUNTER_FACTORY_H_
#define LONGDP_STREAM_COUNTER_FACTORY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stream/stream_counter.h"

namespace longdp {
namespace stream {

/// One registry entry: a counter name and the function that builds it.
/// CounterBank and CumulativeSynthesizer take one so the counter
/// implementation is a run-time choice.
class StreamCounterFactory {
 public:
  /// Builds a counter from arguments Create has already checked.
  using BuildFn = std::unique_ptr<StreamCounter> (*)(
      int64_t horizon, double rho, const util::SubstreamRng& stream);

  StreamCounterFactory(std::string name, int64_t max_horizon, BuildFn build)
      : name_(std::move(name)), max_horizon_(max_horizon), build_(build) {}

  /// Creates a counter for streams of length at most `horizon` with total
  /// privacy cost `rho`, drawing noise from substreams derived off
  /// `stream` (tree-shaped counters key level j as stream.Leaf(j)).
  /// Returns InvalidArgument for horizon < 1, a horizon past this
  /// counter's own limit, or rho <= 0 (rho == +infinity is the zero-noise
  /// test path).
  Result<std::unique_ptr<StreamCounter>> Create(
      int64_t horizon, double rho, const util::SubstreamRng& stream) const;

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  int64_t max_horizon_;
  BuildFn build_;
};

/// Returns the factory registered as `name` (see RegisteredCounterNames);
/// NotFound otherwise.
Result<std::shared_ptr<const StreamCounterFactory>> MakeCounterFactory(
    const std::string& name);

/// The counter used where none is named: the discrete Gaussian "tree".
std::shared_ptr<const StreamCounterFactory> DefaultCounterFactory();

/// All registered counter names, in table order: tree, honaker,
/// input-perturbation, recompute, laplace-tree, sqrt-matrix (ablation
/// sweeps, --help text, and bench/micro_primitives' index arguments).
std::vector<std::string> RegisteredCounterNames();

}  // namespace stream
}  // namespace longdp

#endif  // LONGDP_STREAM_COUNTER_FACTORY_H_
