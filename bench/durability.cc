// Durability-layer overhead: what snapshot + WAL cost per released round,
// at SIPP scale (n = 23,374) and at a million users, for the cumulative
// and fixed-window synthesizers.
//
// For each (algorithm, n) cell the bench runs the same keyed dataset three
// ways and reports wall-clock phases:
//
//   observe_*   plain synthesizer, no durability (the baseline)
//   durable_*   DurableRun: every round fsyncs one WAL frame, every 4th
//               round atomically replaces the snapshot (a binary
//               checkpoint payload of the private bit planes, the counter
//               bank and each round's release targets — no synthetic
//               records; see stream/state_io.h and the README's
//               Durability section)
//   recover_*   reopening the finished session directory: tolerant WAL
//               read + snapshot restore, which rebuilds the synthetic
//               cohort by re-running stage 2 over the stored targets (the
//               replay region is empty at a snapshot boundary, so this
//               isolates pure recovery cost)
//
// The gated JSON series records only deterministic facts — WAL frame
// count, WAL bytes, snapshot bytes — so a stored-baseline diff is immune
// to machine noise; all timings land in the (ungated) phase table. The
// bench also hard-fails unless the durable run's WAL read back STRICTLY
// clean with exactly T frames: an accidental semantics change in the
// persistence layer can't hide behind a timing table.
//
// Flags: --full (adds n=5M) --threads=P (pool lanes, default 4)
//        --snapshot_every=K (default 4) --json[=PATH] --csv=prefix

#include <sys/stat.h>

#include <cstdlib>

#include "bench_common.h"
#include "persist/bindings.h"
#include "persist/session.h"
#include "persist/wal.h"

namespace longdp {
namespace bench {
namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Result<int64_t> FileBytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IOError("stat '" + path + "' failed");
  }
  return static_cast<int64_t>(st.st_size);
}

struct CellResult {
  double observe_s = 0.0;
  double durable_s = 0.0;
  double recover_s = 0.0;
  int64_t wal_frames = 0;
  int64_t wal_bytes = 0;
  int64_t snapshot_bytes = 0;
};

// One (algorithm, n) cell: baseline, durable, and recovery runs over the
// same pre-extracted rounds.
template <typename Run, typename Opts>
Result<CellResult> RunCell(const std::vector<std::vector<uint8_t>>& rounds,
                           const std::string& dir, const Opts& sopts,
                           int64_t snapshot_every) {
  CellResult out;
  const int64_t T = static_cast<int64_t>(rounds.size());

  // Baseline: the bare synthesizer over the same vector-overload feed.
  {
    const auto start = std::chrono::steady_clock::now();
    LONGDP_ASSIGN_OR_RETURN(auto synth, Run::Synth::Create(sopts));
    for (int64_t t = 1; t <= T; ++t) {
      LONGDP_RETURN_NOT_OK(
          synth->ObserveRound(rounds[static_cast<size_t>(t - 1)]));
    }
    out.observe_s = Seconds(start);
  }

  persist::DurableSession::Options dopts;
  dopts.dir = dir;
  dopts.snapshot_every = snapshot_every;

  // Durable: identical feed, plus one fsynced WAL frame per round and a
  // snapshot cut every `snapshot_every` rounds.
  {
    const auto start = std::chrono::steady_clock::now();
    LONGDP_ASSIGN_OR_RETURN(auto run, Run::Open(dopts, sopts));
    for (int64_t t = 1; t <= T; ++t) {
      LONGDP_RETURN_NOT_OK(
          run->ObserveRound(rounds[static_cast<size_t>(t - 1)]));
    }
    out.durable_s = Seconds(start);
  }

  // Recovery: reopen the finished directory. With T divisible by
  // snapshot_every the snapshot is current, so this times the tolerant
  // WAL read + checksum verify + full checkpoint restore alone.
  {
    const auto start = std::chrono::steady_clock::now();
    LONGDP_ASSIGN_OR_RETURN(auto run, Run::Open(dopts, sopts));
    out.recover_s = Seconds(start);
    if (run->session().replay_remaining() != 0) {
      return Status::Internal(
          "recovery of a snapshot-aligned run left a replay region");
    }
  }

  LONGDP_ASSIGN_OR_RETURN(
      auto wal, persist::ReadWal(persist::DurableSession::WalPath(dir),
                                 persist::WalReadMode::kStrict));
  out.wal_frames = static_cast<int64_t>(wal.records.size());
  if (out.wal_frames != T) {
    return Status::Internal("durable run left " +
                            std::to_string(out.wal_frames) +
                            " WAL frames, expected " + std::to_string(T));
  }
  LONGDP_ASSIGN_OR_RETURN(
      out.wal_bytes, FileBytes(persist::DurableSession::WalPath(dir)));
  LONGDP_ASSIGN_OR_RETURN(
      out.snapshot_bytes,
      FileBytes(persist::DurableSession::SnapshotPath(dir)));
  return out;
}

Status Run(const harness::Flags& flags, harness::BenchReport* report) {
  const int64_t T = 12;
  const int k = 3;
  const double rho = 0.005;
  const int64_t threads = flags.Threads(4);
  const int64_t snapshot_every = flags.GetInt("snapshot_every", 4);
  if (snapshot_every <= 0 || T % snapshot_every != 0) {
    return Status::InvalidArgument(
        "--snapshot_every must divide T=12 so the recovery phase has no "
        "replay region");
  }
  std::vector<int64_t> sizes = {23374, 1000000};
  if (flags.Has("full")) sizes.push_back(5000000);

  char tmpl[] = "/tmp/longdp_durability_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    return Status::IOError("mkdtemp failed");
  }
  const std::string root = tmpl;

  report->set_description(
      "snapshot+WAL overhead per round and recovery cost at SIPP and "
      "million-user scale");
  report->SetParam("T", T);
  report->SetParam("k", k);
  report->SetParam("rho", rho);
  report->SetParam("threads", threads);
  report->SetParam("snapshot_every", snapshot_every);
  report->SetParam("full", flags.Has("full") ? "true" : "false");

  std::cout << "== durability: per-round snapshot+WAL overhead ==\n"
            << "T=" << T << " k=" << k << " rho=" << rho
            << " pool lanes=" << threads
            << " snapshot_every=" << snapshot_every << "\n\n";

  harness::Table table({"n", "algo", "observe_s", "durable_s",
                        "overhead_ms_per_round", "recover_s", "wal_bytes",
                        "snapshot_bytes"});
  struct SizeRow {
    std::string algo;
    int64_t n;
    CellResult cell;
  };
  std::vector<SizeRow> size_rows;

  for (int64_t n : sizes) {
    util::ThreadPool gen_pool(static_cast<int>(threads));
    data::MarkovParams params;
    params.initial_rate = 0.10;
    params.entry_prob = 0.03;
    params.exit_prob = 0.25;
    LONGDP_ASSIGN_OR_RETURN(
        auto ds, data::TwoStateMarkov(n, T, params,
                                      kDatasetSeed + static_cast<uint64_t>(n),
                                      &gen_pool));
    // Pre-extract the rounds once: both the baseline and the durable run
    // feed the same vector overload, so the copy cost cancels out.
    std::vector<std::vector<uint8_t>> rounds;
    for (int64_t t = 1; t <= T; ++t) {
      std::vector<uint8_t> bits(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        bits[static_cast<size_t>(i)] = static_cast<uint8_t>(ds.Bit(i, t));
      }
      rounds.push_back(std::move(bits));
    }

    util::ThreadPool pool(static_cast<int>(threads));
    for (const char* algo : {"cumulative", "fixed_window"}) {
      const bool fixed = std::string(algo) == "fixed_window";
      const std::string dir =
          root + "/" + algo + "_n" + std::to_string(n);
      CellResult cell;
      if (fixed) {
        core::FixedWindowSynthesizer::Options opt;
        opt.horizon = T;
        opt.window_k = k;
        opt.rho = rho;
        opt.seed = kRunSeed + 910;
        opt.pool = &pool;
        LONGDP_ASSIGN_OR_RETURN(
            cell, (RunCell<persist::DurableFixedWindow>(rounds, dir, opt,
                                                        snapshot_every)));
      } else {
        core::CumulativeSynthesizer::Options opt;
        opt.horizon = T;
        opt.rho = rho;
        opt.seed = kRunSeed + 911;
        opt.pool = &pool;
        LONGDP_ASSIGN_OR_RETURN(
            cell, (RunCell<persist::DurableCumulative>(rounds, dir, opt,
                                                       snapshot_every)));
      }

      const std::string suffix =
          std::string(algo) + "_n" + std::to_string(n);
      report->RecordPhaseSeconds("observe_" + suffix, cell.observe_s);
      report->RecordPhaseSeconds("durable_" + suffix, cell.durable_s);
      report->RecordPhaseSeconds("recover_" + suffix, cell.recover_s);
      const double overhead_ms =
          (cell.durable_s - cell.observe_s) * 1000.0 /
          static_cast<double>(T);
      LONGDP_RETURN_NOT_OK(table.AddRow(
          {std::to_string(n), algo, harness::Table::Val(cell.observe_s, 3),
           harness::Table::Val(cell.durable_s, 3),
           harness::Table::Val(overhead_ms, 2),
           harness::Table::Val(cell.recover_s, 3),
           std::to_string(cell.wal_bytes),
           std::to_string(cell.snapshot_bytes)}));
      size_rows.push_back({algo, n, cell});
    }
  }

  // Deterministic facts only: byte sizes and frame counts are a pure
  // function of (options, seeds, data), so they gate cleanly.
  auto& series = report->AddSeries("durable_files");
  for (const SizeRow& sr : size_rows) {
    series.AddRow()
        .Label("algo", sr.algo)
        .Label("n", std::to_string(sr.n))
        .Value("wal_frames", static_cast<double>(sr.cell.wal_frames))
        .Value("wal_bytes", static_cast<double>(sr.cell.wal_bytes))
        .Value("snapshot_bytes",
               static_cast<double>(sr.cell.snapshot_bytes));
  }

  table.Print(std::cout);
  std::cout << "\nevery durable run read back strictly clean with exactly "
            << T << " WAL frames\n";
  std::string csv = flags.GetString("csv", "");
  if (!csv.empty()) {
    LONGDP_RETURN_NOT_OK(table.WriteCsv(csv + ".csv"));
  }
  const std::string cleanup = "rm -rf '" + root + "'";
  if (std::system(cleanup.c_str()) != 0) {
    std::cout << "warning: failed to clean up " << root << "\n";
  }
  return Status::OK();
}

}  // namespace
}  // namespace bench
}  // namespace longdp

int main(int argc, char** argv) {
  auto flags = longdp::harness::Flags::Parse(argc, argv);
  auto report = longdp::bench::MakeReport(flags);
  auto st = longdp::bench::Run(flags, &report);
  return longdp::bench::FinishAndExit(flags, report, std::move(st));
}
