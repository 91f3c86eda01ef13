// Shared plumbing of the repository benchmark: command-line arguments, the
// outside-in layer tracer, latency statistics, and the per-workload result
// that main.cc turns into the printed report.
//
// Every layer is timed from OUTSIDE the library: a Span wraps one call to a
// public function of data, core, persist or archive. Spans nest; a layer's
// self time is its span's duration minus the spans opened inside it. The
// tracer lives on the benchmark's single client thread (the library's own
// worker pool runs inside the wrapped calls and is never traced).

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Pool lanes for the workloads that use a pool; 0 = min(4, nproc).
  int lanes = 0;
  /// Tiny sizes for the smoke self-test (same code paths, small n).
  bool tiny = false;
  /// Directory for durable sessions and archives (disk-backed).
  std::string workdir;
  /// Revision of the measured sources, as supplied by run.py.
  std::string source_rev = "unknown";
};

/// The outside-in layers. Names follow "<module>.<call>_<unit>[.<synth>]".
enum class Layer : int {
  kDataPack,
  kCoreCreate,
  kCoreObserveFixedWindow,
  kCoreObserveCumulative,
  kCoreObserveCategorical,
  kCoreCapture,
  kCoreAnswer,
  kCoreToDataset,
  /// Destroying in-memory synthesizers at the end of a repetition.
  kCoreDrop,
  kPersistReleaseRecordFixedWindow,
  kPersistReleaseRecordCumulative,
  kPersistReleaseRecordCategorical,
  /// DurableSession::ObserveRound on a round that cuts no snapshot; its
  /// self time (after the hook spans) is the WAL append + fsync.
  kPersistRoundWal,
  /// DurableSession::ObserveRound on a snapshot round; self time is the
  /// WAL append plus the snapshot write.
  kPersistRoundSnapshot,
  kPersistCheckpointEncodeFixedWindow,
  kPersistCheckpointEncodeCumulative,
  kPersistCheckpointEncodeCategorical,
  kPersistRecoverOpen,
  kPersistCheckpointDecodeFixedWindow,
  kPersistCheckpointDecodeCumulative,
  kPersistCheckpointDecodeCategorical,
  kPersistReplayRound,
  /// Dropping a run: session and synthesizer destructors (the simulated
  /// crash, and the end of a session).
  kPersistDrop,
  kArchiveOpenForAppend,
  kArchiveAppend,
  kArchiveFinish,
  kArchiveOpen,
  kExecSelect,
  kExecWindow,
  kExecCumulative,
  kExecCategorical,
  kExecCohortHistogram,
  kExecSpell,
  kCount,
};

inline constexpr int kNumLayers = static_cast<int>(Layer::kCount);

/// Deterministic per-layer counts the traced run also reports.
enum class Counter : int {
  kSnapshotBytesFixedWindow,
  kSnapshotBytesCumulative,
  kSnapshotBytesCategorical,
  kReplayRounds,
  kWalBytes,
  kArchiveBytes,
  kCount,
};

inline constexpr int kNumCounters = static_cast<int>(Counter::kCount);

struct LayerStats {
  int64_t calls = 0;
  double total_s = 0.0;  ///< inclusive
  double self_s = 0.0;   ///< minus nested spans
  std::vector<double> call_s;  ///< inclusive duration of every call
  std::vector<double> self_call_s;  ///< self duration of every call
};

class Tracer {
 public:
  Tracer() { stack_.reserve(16); }

  void Begin(Layer layer) { stack_.push_back({layer, Clock::now(), 0.0}); }
  void End();

  /// Records the value of a deterministic count (last value wins).
  void SetCounter(Counter c, double value) {
    counters_[static_cast<size_t>(c)] = value;
  }
  double counter(Counter c) const {
    return counters_[static_cast<size_t>(c)];
  }

  const LayerStats& stats(Layer layer) const {
    return layers_[static_cast<size_t>(layer)];
  }

 private:
  struct Open {
    Layer layer;
    Clock::time_point start;
    double child_s;
  };
  std::vector<Open> stack_;
  std::array<LayerStats, kNumLayers> layers_{};
  std::array<double, kNumCounters> counters_{};
};

/// RAII span; a no-op when the tracer is null (untraced units).
class Span {
 public:
  Span(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(layer);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// The end-to-end measurements of one kind of unit (traced or untraced).
struct Measure {
  /// Latency of every primary operation: a release round of the three
  /// synthesizers (sipp_release), a durable round of the three products
  /// (durable_1m), a query (archive_serve).
  std::vector<double> op_s;
  /// Per session (one unit of the workload's loop): its wall time, the
  /// index in op_s where its operations end, and the work they completed
  /// in the throughput's unit (user-rounds or queries).
  std::vector<double> session_s;
  std::vector<size_t> session_end;
  std::vector<double> session_work;

  void EndSession(double wall_s, double work) {
    session_s.push_back(wall_s);
    session_end.push_back(op_s.size());
    session_work.push_back(work);
  }
  /// Work per second of summed operation latency over the whole run.
  double Throughput() const;
};

/// The end-to-end figures of a Measure. The run is cut into windows of
/// consecutive sessions; each window yields a throughput, a median and a
/// tail latency, and the run reports the quartile on the good side across
/// windows (the 75th percentile of throughput, the 25th of latencies and of
/// session walls). Interference from other tenants of a shared machine
/// arrives in bursts of about a second that slow every layer at once; the
/// good-side quartile keeps those bursts out of the figures while a change
/// in the code still moves every window.
///
/// With `aligned`, every session runs the same script of operations whose
/// costs differ by position (durable_1m: rounds grow with t and every fourth
/// writes a snapshot; archive_serve: one fixed query mix), so a window's
/// median and tail would mix positions that noise reorders. The figures
/// then describe the run's best-case session instead: each position's
/// fastest latency across the run's sessions gives the p50, the tail and
/// (summed) the throughput, and the fastest session wall gives session_ms.
/// Interference only ever adds time, so the fastest of a few sessions spread
/// over the run is the steadiest estimate, and a change in the code still
/// moves every position.
struct EndToEnd {
  double throughput_per_s = 0.0;
  double op_p50_ms = 0.0;
  double op_tail_ms = 0.0;
  double session_ms = 0.0;
  size_t windows = 0;
};
EndToEnd Summarize(const Measure& m, double tail_q, size_t window_sessions,
                   bool aligned);

/// A named figure printed in the report's text section.
struct Figure {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note = {};
};

/// Everything one workload run produces.
struct WorkloadResult {
  std::vector<double> setup_s;  ///< one entry per set-up repetition
  Measure plain;                ///< untraced units
  Measure traced;               ///< traced units (trace mode only)
  /// Quantile of op_s that is reported as the tail (0.9 or 0.99).
  double tail_q = 0.9;
  /// Sessions per window of Summarize.
  size_t window_sessions = 1;
  /// Every session runs the same operation script (see EndToEnd).
  bool aligned_sessions = false;
  /// The workload's own named metrics (manifest.json "workload_metrics"),
  /// printed in the text report.
  std::vector<Figure> figures;
  /// Extra provenance lines ("key", "value").
  std::vector<std::pair<std::string, std::string>> provenance;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// First gate failure, for the report.
  std::string first_failure;
  uint32_t digest = 0;
  int lanes = 1;
  Tracer tracer;
  /// Sum of traced unit walls: the denominator of every layer share.
  double traced_wall_s = 0.0;

  /// Records a failed correctness gate (counted in error_rate).
  void Fail(int64_t ops, const std::string& why) {
    failed += ops;
    if (first_failure.empty()) first_failure = why;
  }
};

/// Interleaving of traced and untraced units within one run: in trace mode
/// odd units are traced, so both kinds see the same inputs and machine
/// state, and the tracing overhead is their difference.
inline bool TraceUnit(const Args& args, int64_t unit) {
  return args.trace && (unit % 2 == 1);
}

/// True once a run has measured enough: the time budget is spent, at least
/// `min_units` units ran, and in trace mode both kinds ran.
inline bool Done(const Args& args, Clock::time_point start, int64_t units,
                 int64_t min_units) {
  if (units < min_units) return false;
  if (args.trace && units < 2) return false;
  return SecondsSince(start) >= args.seconds;
}

/// min(4, nproc) unless overridden.
int DefaultLanes(const Args& args);

/// Extends a CRC32C digest with raw bytes / values.
uint32_t DigestBytes(uint32_t crc, const void* data, size_t len);
uint32_t DigestInts(uint32_t crc, const std::vector<int64_t>& values);
uint32_t DigestDouble(uint32_t crc, double value);

/// Filesystem type name of the directory holding `path` (statfs).
std::string FilesystemType(const std::string& path);

/// Recursively removes `path` (a benchmark work directory).
void RemoveTree(const std::string& path);

/// Size of a file in bytes, or -1.
int64_t FileBytes(const std::string& path);

using longdp::Result;
using longdp::Status;

Status RunSippRelease(const Args& args, WorkloadResult* out);
Status RunDurable1m(const Args& args, WorkloadResult* out);
Status RunArchiveServe(const Args& args, WorkloadResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
