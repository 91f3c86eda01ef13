// perfbench: the repository benchmark binary.
//
//   perfbench --workload <sipp_release|durable_1m|archive_serve> --seed N
//             --seconds S --trace 0|1 [--lanes L] [--tiny]
//             [--workdir DIR] [--source-rev REV]
//
// Runs one workload in this process and prints a text report followed, as
// the last line of standard output, by one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// they are the per-layer metrics of the traced units (see README.md).
// Exit status: 0 when every correctness gate held, 1 when a gate failed,
// 2 when the run could not be set up.

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "util/simd/simd.h"

namespace perfbench {
namespace {

double PeakRssMb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---- per-layer output ------------------------------------------------------

struct LayerOut {
  Layer layer;
  const char* name;
  double scale;  ///< seconds -> reported unit
  const char* unit;
};

constexpr LayerOut kLayerOut[] = {
    {Layer::kDataPack, "data.pack_ms", 1e3, "ms"},
    {Layer::kCoreCreate, "core.create_us", 1e6, "us"},
    {Layer::kCoreObserveFixedWindow, "core.observe_ms.fixed_window", 1e3, "ms"},
    {Layer::kCoreObserveCumulative, "core.observe_ms.cumulative", 1e3, "ms"},
    {Layer::kCoreObserveCategorical, "core.observe_ms.categorical", 1e3, "ms"},
    {Layer::kCoreCapture, "core.capture_us", 1e6, "us"},
    {Layer::kCoreAnswer, "core.answer_us", 1e6, "us"},
    {Layer::kCoreToDataset, "core.to_dataset_ms", 1e3, "ms"},
    {Layer::kCoreDrop, "core.drop_us", 1e6, "us"},
    {Layer::kPersistReleaseRecordFixedWindow,
     "persist.release_record_us.fixed_window", 1e6, "us"},
    {Layer::kPersistReleaseRecordCumulative,
     "persist.release_record_us.cumulative", 1e6, "us"},
    {Layer::kPersistReleaseRecordCategorical,
     "persist.release_record_us.categorical", 1e6, "us"},
    {Layer::kPersistRoundWal, "persist.wal_append_ms", 1e3, "ms"},
    {Layer::kPersistCheckpointEncodeFixedWindow,
     "persist.checkpoint_encode_ms.fixed_window", 1e3, "ms"},
    {Layer::kPersistCheckpointEncodeCumulative,
     "persist.checkpoint_encode_ms.cumulative", 1e3, "ms"},
    {Layer::kPersistCheckpointEncodeCategorical,
     "persist.checkpoint_encode_ms.categorical", 1e3, "ms"},
    {Layer::kPersistRoundSnapshot, "persist.snapshot_write_ms", 1e3, "ms"},
    {Layer::kPersistRecoverOpen, "persist.recover_open_ms", 1e3, "ms"},
    {Layer::kPersistCheckpointDecodeFixedWindow,
     "persist.checkpoint_decode_ms.fixed_window", 1e3, "ms"},
    {Layer::kPersistCheckpointDecodeCumulative,
     "persist.checkpoint_decode_ms.cumulative", 1e3, "ms"},
    {Layer::kPersistCheckpointDecodeCategorical,
     "persist.checkpoint_decode_ms.categorical", 1e3, "ms"},
    {Layer::kPersistReplayRound, "persist.replay_round_ms", 1e3, "ms"},
    {Layer::kPersistDrop, "persist.drop_ms", 1e3, "ms"},
    {Layer::kArchiveOpenForAppend, "archive.open_for_append_ms", 1e3, "ms"},
    {Layer::kArchiveAppend, "archive.append_ms", 1e3, "ms"},
    {Layer::kArchiveFinish, "archive.finish_ms", 1e3, "ms"},
    {Layer::kArchiveOpen, "archive.open_ms", 1e3, "ms"},
    {Layer::kExecSelect, "archive.exec.select_us", 1e6, "us"},
    {Layer::kExecWindow, "archive.exec.window_us", 1e6, "us"},
    {Layer::kExecCumulative, "archive.exec.cumulative_us", 1e6, "us"},
    {Layer::kExecCategorical, "archive.exec.categorical_us", 1e6, "us"},
    {Layer::kExecCohortHistogram, "archive.exec.cohort_histogram_us", 1e6,
     "us"},
    {Layer::kExecSpell, "archive.exec.spell_us", 1e6, "us"},
};

struct CounterOut {
  Counter counter;
  const char* name;
  const char* unit;
};

constexpr CounterOut kCounterOut[] = {
    {Counter::kSnapshotBytesFixedWindow, "persist.snapshot_bytes.fixed_window",
     "bytes"},
    {Counter::kSnapshotBytesCumulative, "persist.snapshot_bytes.cumulative",
     "bytes"},
    {Counter::kSnapshotBytesCategorical, "persist.snapshot_bytes.categorical",
     "bytes"},
    {Counter::kReplayRounds, "persist.replay_rounds", "count"},
    {Counter::kWalBytes, "persist.wal_bytes", "bytes"},
    {Counter::kArchiveBytes, "archive.bytes", "bytes"},
};

/// One row of the layer table: the call statistics after the WAL/snapshot
/// residual split.
struct LayerRow {
  const LayerOut* out;
  int64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  double median_s = 0.0;
};

std::vector<LayerRow> LayerRows(const Tracer& tracer) {
  // The WAL append is the self time of a non-snapshot durable round; a
  // snapshot round's self time is one WAL append plus the snapshot write.
  const LayerStats& wal = tracer.stats(Layer::kPersistRoundWal);
  const double wal_median = Median(wal.self_call_s);
  std::vector<LayerRow> rows;
  for (const LayerOut& lo : kLayerOut) {
    const LayerStats& s = tracer.stats(lo.layer);
    LayerRow row;
    row.out = &lo;
    row.calls = s.calls;
    if (lo.layer == Layer::kPersistRoundWal) {
      const int64_t snaps = tracer.stats(Layer::kPersistRoundSnapshot).calls;
      row.calls = s.calls + snaps;
      row.self_s = s.self_s + static_cast<double>(snaps) * wal_median;
      row.total_s = row.self_s;
      row.median_s = wal_median;
    } else if (lo.layer == Layer::kPersistRoundSnapshot) {
      std::vector<double> residual;
      for (double v : s.self_call_s) residual.push_back(v - wal_median);
      row.self_s = s.self_s - static_cast<double>(s.calls) * wal_median;
      row.total_s = row.self_s;
      row.median_s = Median(residual);
    } else {
      row.total_s = s.total_s;
      row.self_s = s.self_s;
      row.median_s = Median(s.call_s);
    }
    rows.push_back(row);
  }
  return rows;
}

// ---- argument parsing ------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      *error = "unexpected argument '" + a + "'";
      return false;
    }
    a = a.substr(2);
    const size_t eq = a.find('=');
    if (eq != std::string::npos) {
      kv[a.substr(0, eq)] = a.substr(eq + 1);
    } else if (a == "tiny") {
      kv[a] = std::string("1");  // GCC 12 -Wrestrict false positive
    } else if (i + 1 < argc) {
      kv[a] = argv[++i];
    } else {
      *error = "missing value for --" + a;
      return false;
    }
  }
  try {
    for (const auto& [key, value] : kv) {
      if (key == "workload") {
        args->workload = value;
      } else if (key == "seed") {
        args->seed = std::stoull(value);
      } else if (key == "seconds") {
        args->seconds = std::stod(value);
      } else if (key == "trace") {
        args->trace = std::stoi(value) != 0;
      } else if (key == "lanes") {
        args->lanes = std::stoi(value);
      } else if (key == "tiny") {
        args->tiny = value != "0";
      } else if (key == "workdir") {
        args->workdir = value;
      } else if (key == "source-rev") {
        args->source_rev = value;
      } else {
        *error = "unknown flag --" + key;
        return false;
      }
    }
  } catch (const std::exception&) {
    *error = "malformed flag value";
    return false;
  }
  if (args->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  if (!(args->seconds > 0.0)) {
    *error = "--seconds must be positive";
    return false;
  }
  return true;
}

// ---- report ----------------------------------------------------------------

void PrintProvenance(const Args& args, const WorkloadResult& r) {
  namespace simd = longdp::util::simd;
  std::printf("== perfbench %s ==\n", args.workload.c_str());
  std::printf("provenance:\n");
  std::printf("  workload        %s\n", args.workload.c_str());
  std::printf("  seed            %llu\n",
              static_cast<unsigned long long>(args.seed));
  std::printf("  seconds         %s\n", Num(args.seconds).c_str());
  std::printf("  trace           %d\n", args.trace ? 1 : 0);
  std::printf("  nproc           %u\n", std::thread::hardware_concurrency());
  std::printf("  pool_lanes      %d\n", r.lanes);
  std::printf("  isa             %s\n",
              simd::IsaLevelName(simd::ActiveIsaLevel()));
  std::printf("  compiler        %s\n", PERFBENCH_COMPILER);
  std::printf("  build_type      %s\n", PERFBENCH_BUILD_TYPE);
  std::printf("  source_rev      %s\n", args.source_rev.c_str());
  for (const auto& [key, value] : r.provenance) {
    std::printf("  %-15s %s\n", key.c_str(), value.c_str());
  }
}

void PrintFigures(const char* title, const std::vector<Figure>& metrics) {
  std::printf("%s:\n", title);
  for (const Figure& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string JsonLine(const WorkloadResult& r,
                     const std::vector<Figure>& metrics) {
  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  return json;
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  Status (*run)(const Args&, WorkloadResult*) = nullptr;
  if (args.workload == "sipp_release") {
    run = RunSippRelease;
  } else if (args.workload == "durable_1m") {
    run = RunDurable1m;
  } else if (args.workload == "archive_serve") {
    run = RunArchiveServe;
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  // Each run works in a private directory under the work root, removed at
  // the end, so concurrent or crashed runs never share files.
  const std::string root =
      args.workdir.empty() ? std::string(".bench_build/work") : args.workdir;
  std::filesystem::create_directories(root);
  args.workdir = root + "/" + args.workload + "-" + std::to_string(::getpid());
  RemoveTree(args.workdir);
  if (::mkdir(args.workdir.c_str(), 0755) != 0) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 args.workdir.c_str(), std::strerror(errno));
    return 2;
  }

  WorkloadResult result;
  const Status st = run(args, &result);
  RemoveTree(args.workdir);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 st.ToString().c_str());
    return 2;
  }

  PrintProvenance(args, result);
  const double error_rate =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 0.0;
  std::printf("  digest          %08x\n", result.digest);

  std::vector<Figure> json_metrics;
  const EndToEnd plain = Summarize(result.plain, result.tail_q,
                                   result.window_sessions,
                                   result.aligned_sessions);
  const double setup_s = Median(result.setup_s);
  const double rss = PeakRssMb();
  if (!args.trace) {
    json_metrics = {
        {"setup_s", setup_s, "s"},
        {"throughput_per_s", plain.throughput_per_s, "1/s"},
        {"op_p50_ms", plain.op_p50_ms, "ms"},
        {"op_tail_ms", plain.op_tail_ms, "ms"},
        {"session_ms", plain.session_ms, "ms"},
        {"peak_rss_mb", rss, "MB"},
    };
    PrintFigures("end-to-end metrics", json_metrics);
    std::printf(
        "  (%zu operations, tail = p%g, %zu sessions in %zu windows of %zu; "
        "%s; %zu set-ups)\n",
        result.plain.op_s.size(), result.tail_q * 100.0,
        result.plain.session_s.size(), plain.windows, result.window_sessions,
        result.aligned_sessions ? "best-case session"
                                : "good-side window quartiles",
        result.setup_s.size());
    std::vector<Figure> named;
    named.push_back({"setup_s", setup_s, "s"});
    named.insert(named.end(), result.figures.begin(), result.figures.end());
    named.push_back({"peak_rss_mb", rss, "MB"});
    named.push_back({"error_rate", error_rate, "ratio"});
    PrintFigures("workload metrics", named);
    for (const Figure& f : result.figures) {
      if (!f.note.empty()) {
        std::printf("  note: %s %s\n", f.name.c_str(), f.note.c_str());
      }
    }
  } else {
    const std::vector<LayerRow> rows = LayerRows(result.tracer);
    const double wall = result.traced_wall_s;
    double covered = 0.0;
    std::printf("per-layer (traced units, wall %.6f s):\n", wall);
    std::printf("  %-42s %8s %12s %12s %14s %8s\n", "layer", "calls",
                "total_s", "self_s", "median/call", "share");
    for (const LayerRow& row : rows) {
      covered += row.self_s;
      const double share = wall > 0.0 ? row.self_s / wall : 0.0;
      json_metrics.push_back(
          {row.out->name, row.median_s * row.out->scale, row.out->unit});
      json_metrics.push_back({std::string(row.out->name) + ".share", share,
                              "ratio"});
      json_metrics.push_back({std::string(row.out->name) + ".calls",
                              static_cast<double>(row.calls), "count"});
      if (row.calls == 0) continue;
      std::printf("  %-42s %8lld %12.6f %12.6f %11.3f %-2s %8.4f\n",
                  row.out->name, static_cast<long long>(row.calls),
                  row.total_s, row.self_s, row.median_s * row.out->scale,
                  row.out->unit, share);
    }
    for (const CounterOut& c : kCounterOut) {
      const double v = result.tracer.counter(c.counter);
      json_metrics.push_back({c.name, v, c.unit});
      if (v != 0.0) {
        std::printf("  %-42s %.0f %s\n", c.name, v, c.unit);
      }
    }
    const double coverage = wall > 0.0 ? covered / wall : 0.0;
    std::printf("  coverage: timed calls cover %.2f%% of the traced wall%s\n",
                coverage * 100.0,
                coverage < 0.95 ? "  ** BELOW 95% **" : "");

    const EndToEnd traced = Summarize(result.traced, result.tail_q,
                                      result.window_sessions,
                                      result.aligned_sessions);
    std::printf("tracing overhead (traced minus untraced units):\n");
    std::printf("  %-20s %14s %14s %14s\n", "metric", "untraced", "traced",
                "difference");
    const std::pair<const char*, std::pair<double, double>> diffs[] = {
        {"throughput_per_s", {plain.throughput_per_s, traced.throughput_per_s}},
        {"op_p50_ms", {plain.op_p50_ms, traced.op_p50_ms}},
        {"op_tail_ms", {plain.op_tail_ms, traced.op_tail_ms}},
        {"session_ms", {plain.session_ms, traced.session_ms}},
    };
    for (const auto& [name, v] : diffs) {
      std::printf("  %-20s %14.6f %14.6f %+14.6f\n", name, v.first, v.second,
                  v.second - v.first);
    }
    json_metrics.push_back({"trace.coverage", coverage, "ratio"});
    json_metrics.push_back({"trace.overhead.session_ms",
                            traced.session_ms - plain.session_ms, "ms"});
    json_metrics.push_back({"trace.overhead.op_p50_ms",
                            traced.op_p50_ms - plain.op_p50_ms, "ms"});
  }
  std::printf("error_rate %.6f (%lld failed of %lld attempted)%s%s\n",
              error_rate, static_cast<long long>(result.failed),
              static_cast<long long>(result.attempted),
              result.first_failure.empty() ? "" : "; first failure: ",
              result.first_failure.c_str());
  std::printf("%s\n", JsonLine(result, json_metrics).c_str());
  std::fflush(stdout);
  return result.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
