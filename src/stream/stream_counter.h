// Generic private stream counter interface (paper Appendix A).
//
// A stream counter consumes a stream z_1, z_2, ..., z_T of non-negative
// integers and, at every step, releases a private estimate of the prefix sum
// S_t = z_1 + ... + z_t. Neighboring streams differ in one entry by at most
// 1, and the released sequence must be rho-zCDP with respect to that
// relation.
//
// Randomness: every counter owns keyed substreams derived from the
// SubstreamRng handed to its constructor (util/substream.h) — tree-shaped
// counters hold one substream per binary level, flat counters hold one.
// Observe therefore takes no RNG: the noise at (counter, level, draw-index)
// is a pure function of the construction key, which is what lets a bank of
// counters advance in parallel across ThreadPool shards and still release
// bit-identical values at any shard or thread count. A counter's state is
// therefore a pure function of its construction parameters and the z values
// it has observed, so counters have no serialized form: a checkpoint stores
// the inputs, and a restore rebuilds each counter by observing them again.
//
// Algorithm 2 of the paper is written against this interface (its Section
// 1.1 explicitly notes the tree counter can be swapped for any stream
// counter). The implementations are chosen by name through the one
// registry table in stream/counter_factory.h — "tree" and "laplace-tree"
// (TreeCounter with discrete Gaussian or discrete Laplace node noise),
// "honaker", "input-perturbation", "recompute" and "sqrt-matrix" — and
// bench/counter_ablation exercises all of them.

#ifndef LONGDP_STREAM_STREAM_COUNTER_H_
#define LONGDP_STREAM_STREAM_COUNTER_H_

#include <cstdint>
#include <string>

#include "util/status.h"
#include "util/substream.h"

namespace longdp {
namespace stream {

/// \brief Interface for rho-zCDP continual counting.
///
/// Implementations are single-use: construct, then call Observe exactly once
/// per time step in order. Constructors trust their arguments;
/// StreamCounterFactory::Create (stream/counter_factory.h) is the checked
/// way to build one. They are deliberately not thread-safe (one counter
/// per stream; CounterBank parallelizes across counters, the harness across
/// repetitions).
class StreamCounter {
 public:
  virtual ~StreamCounter() = default;

  /// Feeds the next stream element (z_t >= 0) and returns the noisy running
  /// sum estimate S~_t, drawing noise from the counter's own substreams.
  /// Returns OutOfRange once more than T elements have been observed.
  virtual Result<int64_t> Observe(int64_t z) = 0;

  /// Time steps observed so far.
  virtual int64_t steps() const = 0;

  /// The stream length bound this counter was built for.
  virtual int64_t horizon() const = 0;

  /// The total zCDP cost of the counter's entire output sequence.
  virtual double rho() const = 0;

  /// Per-time-step high-probability additive error bound: with probability
  /// at least 1 - beta, |S~_t - S_t| <= ErrorBound(beta, t) for the single
  /// step t (union-bounding across steps is the caller's job).
  virtual double ErrorBound(double beta, int64_t t) const = 0;

  /// Implementation name for reports ("tree", "honaker", ...).
  virtual std::string name() const = 0;
};

}  // namespace stream
}  // namespace longdp

#endif  // LONGDP_STREAM_STREAM_COUNTER_H_
