// durable_1m: the curator's production path at a million households.
//
// n = 1,000,000 keyed SimulateSipp households plus the employment chain,
// T = 12, all three synthesizers through persist::DurableRun on a pool of
// min(4, nproc) lanes. Flush policy, fixed: one fsynced WAL frame per
// round, a snapshot every 4 rounds, in a directory on the checkout's disk.
// Each session follows one script:
//
//   open fresh -> rounds 1..7 -> drop the run (a crash mid-interval)
//   -> reopen (restore the round-4 snapshot) and re-feed rounds 5..7,
//      which the session verifies against the WAL
//   -> rounds 8..12 -> seal the release log and synthetic panel into the
//      pass's shared .ldpa through ArchiveWriter::OpenForAppend.
//
// A unit ("pass") runs one session per synthesizer into one fresh archive.
// The primary operation is a durable round: DurableRun::ObserveRound, from
// the call until the release is durable.
//
// Traced units build their own persist::DurableSession whose
// SynthesizerHooks wrap the synthesizer's public calls (the seam
// persist/session.h documents), so the session's own WAL and snapshot I/O
// is the residual of each ObserveRound.
//
// Gates, after every pass: each session's WAL re-reads strictly with
// exactly T frames, byte-equal to the release records of a bare in-memory
// run with the same seed; the archive's ToReleaseLog equals the captured
// log; the pass digest equals the first pass's.

#include <sys/stat.h>

#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "archive/reader.h"
#include "archive/writer.h"
#include "bench.h"
#include "core/release_log.h"
#include "data/round_view.h"
#include "inputs.h"
#include "persist/bindings.h"
#include "persist/session.h"
#include "persist/wal.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace ld = longdp;
using ld::persist::DurableSession;

namespace {

constexpr int64_t kSnapshotEvery = 4;
constexpr int64_t kCrashAfter = 7;
constexpr uint64_t kPurposeSynth = 20;

// ---- per-synthesizer bindings ----------------------------------------------

template <typename Traits>
struct Spec;

template <>
struct Spec<ld::persist::FixedWindowTraits> {
  static constexpr Synth kSynth = Synth::kFixedWindow;
  static constexpr Layer kObserve = Layer::kCoreObserveFixedWindow;
  static constexpr Layer kRecord = Layer::kPersistReleaseRecordFixedWindow;
  static constexpr Layer kEncode = Layer::kPersistCheckpointEncodeFixedWindow;
  static constexpr Layer kDecode = Layer::kPersistCheckpointDecodeFixedWindow;
  static constexpr Counter kSnapshotBytes = Counter::kSnapshotBytesFixedWindow;
  static auto Options(uint64_t seed, ld::util::ThreadPool* pool) {
    return FixedWindowOptions(seed, pool);
  }
  static const std::vector<std::vector<uint8_t>>& Rounds(const Inputs& in) {
    return in.bits;
  }
  static Result<std::optional<ld::data::LongitudinalDataset>> Panel(
      const ld::core::FixedWindowSynthesizer& synth) {
    LONGDP_ASSIGN_OR_RETURN(auto panel, synth.cohort().ToDataset(kHorizon));
    return std::optional<ld::data::LongitudinalDataset>(std::move(panel));
  }
};

template <>
struct Spec<ld::persist::CumulativeTraits> {
  static constexpr Synth kSynth = Synth::kCumulative;
  static constexpr Layer kObserve = Layer::kCoreObserveCumulative;
  static constexpr Layer kRecord = Layer::kPersistReleaseRecordCumulative;
  static constexpr Layer kEncode = Layer::kPersistCheckpointEncodeCumulative;
  static constexpr Layer kDecode = Layer::kPersistCheckpointDecodeCumulative;
  static constexpr Counter kSnapshotBytes = Counter::kSnapshotBytesCumulative;
  static auto Options(uint64_t seed, ld::util::ThreadPool* pool) {
    return CumulativeOptions(seed, pool);
  }
  static const std::vector<std::vector<uint8_t>>& Rounds(const Inputs& in) {
    return in.bits;
  }
  static Result<std::optional<ld::data::LongitudinalDataset>> Panel(
      const ld::core::CumulativeSynthesizer& synth) {
    LONGDP_ASSIGN_OR_RETURN(auto panel, synth.ToDataset());
    return std::optional<ld::data::LongitudinalDataset>(std::move(panel));
  }
};

template <>
struct Spec<ld::persist::CategoricalTraits> {
  static constexpr Synth kSynth = Synth::kCategorical;
  static constexpr Layer kObserve = Layer::kCoreObserveCategorical;
  static constexpr Layer kRecord = Layer::kPersistReleaseRecordCategorical;
  static constexpr Layer kEncode = Layer::kPersistCheckpointEncodeCategorical;
  static constexpr Layer kDecode = Layer::kPersistCheckpointDecodeCategorical;
  static constexpr Counter kSnapshotBytes =
      Counter::kSnapshotBytesCategorical;
  static auto Options(uint64_t seed, ld::util::ThreadPool* pool) {
    return CategoricalOptions(seed, pool);
  }
  static const std::vector<std::vector<uint8_t>>& Rounds(const Inputs& in) {
    return in.employment;
  }
  /// The categorical synthesizer has no binary panel to archive.
  static Result<std::optional<ld::data::LongitudinalDataset>> Panel(
      const ld::core::CategoricalWindowSynthesizer&) {
    return std::optional<ld::data::LongitudinalDataset>();
  }
};

/// One round of input through the synthesizer's public API: binary rounds
/// are packed at the API edge (data::PackedRound) and observed as a
/// RoundView; categorical rounds go in as symbols.
template <typename SynthT>
Status ObserveBytes(SynthT& synth, const std::vector<uint8_t>& data,
                    ld::data::PackedRound* packed, Layer observe,
                    Tracer* tr) {
  if constexpr (std::is_same_v<SynthT,
                               ld::core::CategoricalWindowSynthesizer>) {
    Span span(tr, observe);
    return synth.ObserveRound(data);
  } else {
    {
      Span span(tr, Layer::kDataPack);
      LONGDP_RETURN_NOT_OK(packed->Assign(data));
    }
    Span span(tr, observe);
    return synth.ObserveRound(packed->view());
  }
}

/// persist::DurableRun's twin for traced units: the same synthesizer and
/// session, with every hook wrapped in a span.
template <typename Traits>
class TracedRun {
 public:
  using SynthT = typename Traits::Synth;

  static Result<std::unique_ptr<TracedRun>> Open(
      const DurableSession::Options& dopts,
      const typename SynthT::Options& sopts, Tracer* tr) {
    using S = Spec<Traits>;
    auto run = std::unique_ptr<TracedRun>(new TracedRun());
    run->tr_ = tr;
    run->pool_ = sopts.pool;
    {
      Span span(tr, Layer::kCoreCreate);
      LONGDP_ASSIGN_OR_RETURN(run->synth_, SynthT::Create(sopts));
    }
    TracedRun* self = run.get();
    ld::persist::SynthesizerHooks hooks;
    hooks.kind = Traits::kKind;
    hooks.format_version = Traits::kFormatVersion;
    hooks.seed = sopts.seed;
    hooks.save = [self](std::ostream& out) -> Status {
      Span span(self->tr_, S::kEncode);
      const auto before = out.tellp();
      LONGDP_RETURN_NOT_OK(self->synth_->SaveCheckpoint(out));
      self->tr_->SetCounter(S::kSnapshotBytes,
                            static_cast<double>(out.tellp() - before));
      return Status::OK();
    };
    hooks.restore = [self](std::istream& in) -> Status {
      Span span(self->tr_, S::kDecode);
      LONGDP_ASSIGN_OR_RETURN(self->synth_, SynthT::LoadCheckpoint(in));
      self->synth_->set_pool(self->pool_);
      return Status::OK();
    };
    hooks.observe = [self](const std::vector<uint8_t>& data) {
      return ObserveBytes(*self->synth_, data, &self->packed_, S::kObserve,
                          self->tr_);
    };
    hooks.round = [self]() { return self->synth_->t(); };
    hooks.release_record = [self]() {
      Span span(self->tr_, S::kRecord);
      return Traits::ReleaseRecord(*self->synth_);
    };
    Span span(tr, Layer::kPersistRecoverOpen);
    LONGDP_ASSIGN_OR_RETURN(run->session_,
                            DurableSession::Open(dopts, std::move(hooks)));
    return run;
  }

  Status ObserveRound(const std::vector<uint8_t>& data) {
    Layer layer = Layer::kPersistRoundWal;
    if (session_->replay_remaining() > 0) {
      layer = Layer::kPersistReplayRound;
    } else if ((synth_->t() + 1) % kSnapshotEvery == 0) {
      layer = Layer::kPersistRoundSnapshot;
    }
    Span span(tr_, layer);
    return session_->ObserveRound(data);
  }

  SynthT& synth() { return *synth_; }
  DurableSession& session() { return *session_; }

 private:
  TracedRun() = default;

  Tracer* tr_ = nullptr;
  ld::util::ThreadPool* pool_ = nullptr;
  ld::data::PackedRound packed_;
  std::unique_ptr<SynthT> synth_;
  std::unique_ptr<DurableSession> session_;
};

// ---- one product's durable session ----------------------------------------

struct Context {
  const Inputs* in = nullptr;
  ld::util::ThreadPool* pool = nullptr;
  uint64_t seed = 0;
};

uint64_t SynthSeed(const Context& ctx, Synth synth) {
  return DeriveSeed(ctx.seed, kPurposeSynth, static_cast<uint64_t>(synth));
}

/// One synthesizer's durable session, driven step by step by the pass
/// script so the three products release each round together.
class Product {
 public:
  virtual ~Product() = default;
  /// Opens (or, after a crash, recovers) the session.
  virtual Status Open() = 0;
  /// One durable round with round t's input.
  virtual Status Observe(int64_t t) = 0;
  /// Appends the current release to the captured log.
  virtual Status Capture() = 0;
  /// Recovery facts of the last Open.
  virtual int64_t SnapshotRound() = 0;
  virtual int64_t ReplayRemaining() = 0;
  /// Drops the run (the crash, and the end of the session).
  virtual void Drop() = 0;
  /// Seals the captured log and synthetic panel into the shared archive.
  virtual Status Seal(const std::string& archive_path) = 0;

  const ld::core::ReleaseLog& log() const { return log_; }

 protected:
  ld::core::ReleaseLog log_;
};

template <typename Traits, typename RunT>
class ProductRun final : public Product {
 public:
  using S = Spec<Traits>;

  ProductRun(const Context& ctx, const std::string& dir, Tracer* tr)
      : sopts_(S::Options(SynthSeed(ctx, S::kSynth), ctx.pool)),
        rounds_(S::Rounds(*ctx.in)),
        tr_(tr) {
    dopts_.dir = dir;
    dopts_.snapshot_every = kSnapshotEvery;
  }

  Status Open() override {
    if constexpr (std::is_same_v<RunT, TracedRun<Traits>>) {
      LONGDP_ASSIGN_OR_RETURN(run_, RunT::Open(dopts_, sopts_, tr_));
    } else {
      LONGDP_ASSIGN_OR_RETURN(run_, RunT::Open(dopts_, sopts_));
    }
    return Status::OK();
  }
  Status Observe(int64_t t) override {
    return run_->ObserveRound(rounds_[static_cast<size_t>(t - 1)]);
  }
  Status Capture() override {
    Span span(tr_, Layer::kCoreCapture);
    return log_.Capture(run_->synth());
  }
  int64_t SnapshotRound() override {
    return run_->session().recovery().snapshot_round;
  }
  int64_t ReplayRemaining() override {
    return run_->session().replay_remaining();
  }
  void Drop() override {
    Span span(tr_, Layer::kPersistDrop);
    run_.reset();  // nothing past the last fsynced frame survives
  }
  Status Seal(const std::string& archive_path) override {
    std::optional<ld::data::LongitudinalDataset> panel;
    {
      Span span(tr_, Layer::kCoreToDataset);
      LONGDP_ASSIGN_OR_RETURN(panel, S::Panel(run_->synth()));
    }
    std::optional<ld::archive::ArchiveWriter> writer;
    {
      Span span(tr_, Layer::kArchiveOpenForAppend);
      LONGDP_ASSIGN_OR_RETURN(
          auto w, ld::archive::ArchiveWriter::OpenForAppend(archive_path));
      writer.emplace(std::move(w));
    }
    {
      Span span(tr_, Layer::kArchiveAppend);
      const std::string label = SynthName(S::kSynth);
      LONGDP_RETURN_NOT_OK(writer->AppendReleaseLog(label, log_));
      if (panel.has_value()) {
        LONGDP_RETURN_NOT_OK(writer->AppendCohort(label, *panel));
      }
    }
    Span span(tr_, Layer::kArchiveFinish);
    return writer->Finish();
  }

 private:
  DurableSession::Options dopts_;
  typename Traits::Synth::Options sopts_;
  const std::vector<std::vector<uint8_t>>& rounds_;
  Tracer* tr_;
  std::unique_ptr<RunT> run_;
};

template <typename Traits>
std::unique_ptr<Product> MakeProduct(bool traced, const Context& ctx,
                                     const std::string& dir, Tracer* tr) {
  if (traced) {
    return std::make_unique<ProductRun<Traits, TracedRun<Traits>>>(ctx, dir,
                                                                    tr);
  }
  return std::make_unique<ProductRun<Traits, ld::persist::DurableRun<Traits>>>(
      ctx, dir, nullptr);
}

struct PassOut {
  std::vector<double> round_s;    ///< new rounds of all three products
  std::vector<double> recover_s;  ///< per product
  std::vector<double> seal_s;     ///< per product
  int64_t snapshot_round[3] = {0, 0, 0};
  int64_t replay_rounds[3] = {0, 0, 0};
  double wall_s = 0.0;
};

/// The pass script. One operation is one round of all three products,
/// from the first ObserveRound call until the last release is durable.
Status RunPass(std::vector<std::unique_ptr<Product>>& products,
               const std::string& archive_path, PassOut* out) {
  auto release_round = [&](int64_t t) -> Status {
    const auto start = Clock::now();
    for (auto& p : products) LONGDP_RETURN_NOT_OK(p->Observe(t));
    out->round_s.push_back(SecondsSince(start));
    for (auto& p : products) LONGDP_RETURN_NOT_OK(p->Capture());
    return Status::OK();
  };
  for (auto& p : products) LONGDP_RETURN_NOT_OK(p->Open());
  for (int64_t t = 1; t <= kCrashAfter; ++t) {
    LONGDP_RETURN_NOT_OK(release_round(t));
  }
  for (auto& p : products) p->Drop();  // the crash, mid snapshot interval

  // Recovery, product by product: from Open on the crashed directory until
  // the replay region is re-fed and verified against the WAL.
  for (size_t i = 0; i < products.size(); ++i) {
    Product& p = *products[i];
    const auto start = Clock::now();
    LONGDP_RETURN_NOT_OK(p.Open());
    out->snapshot_round[i] = p.SnapshotRound();
    out->replay_rounds[i] = p.ReplayRemaining();
    for (int64_t t = out->snapshot_round[i] + 1; t <= kCrashAfter; ++t) {
      LONGDP_RETURN_NOT_OK(p.Observe(t));
    }
    out->recover_s.push_back(SecondsSince(start));
    if (p.ReplayRemaining() != 0) {
      return Status::Internal("replay region not fully re-fed");
    }
  }
  for (int64_t t = kCrashAfter + 1; t <= kHorizon; ++t) {
    LONGDP_RETURN_NOT_OK(release_round(t));
  }
  for (auto& p : products) {
    const auto start = Clock::now();
    LONGDP_RETURN_NOT_OK(p->Seal(archive_path));
    out->seal_s.push_back(SecondsSince(start));
    p->Drop();
  }
  return Status::OK();
}

// ---- reference and gates ---------------------------------------------------

struct Reference {
  std::vector<std::string> records;  ///< release record after each round
  ld::core::ReleaseLog log;
};

template <typename Traits>
Status BareRun(const Context& ctx, Reference* ref) {
  using S = Spec<Traits>;
  LONGDP_ASSIGN_OR_RETURN(
      auto synth,
      Traits::Synth::Create(S::Options(SynthSeed(ctx, S::kSynth), ctx.pool)));
  const auto& rounds = S::Rounds(*ctx.in);
  for (int64_t t = 1; t <= kHorizon; ++t) {
    LONGDP_RETURN_NOT_OK(
        synth->ObserveRound(rounds[static_cast<size_t>(t - 1)]));
    ref->records.push_back(Traits::ReleaseRecord(*synth));
    LONGDP_RETURN_NOT_OK(ref->log.Capture(*synth));
  }
  return Status::OK();
}

/// Checks one finished pass and computes its digest. Returns a description
/// of the first failed gate, or "" when all hold.
std::string CheckPass(const std::string& pass_dir,
                      const std::string& archive_path,
                      const Reference (&refs)[3],
                      const std::vector<std::unique_ptr<Product>>& products,
                      const PassOut& pass, uint32_t* digest,
                      double* wal_bytes, double* snapshot_bytes) {
  uint32_t crc = 0;
  *wal_bytes = 0.0;
  *snapshot_bytes = 0.0;
  for (Synth s : kAllSynths) {
    const size_t i = static_cast<size_t>(s);
    const std::string name = SynthName(s);
    const std::string dir = pass_dir + "/" + name;
    auto wal = ld::persist::ReadWal(DurableSession::WalPath(dir),
                                    ld::persist::WalReadMode::kStrict);
    if (!wal.ok()) {
      return name + ": strict WAL re-read failed: " + wal.status().ToString();
    }
    const auto& records = wal.value().records;
    if (static_cast<int64_t>(records.size()) != kHorizon) {
      return name + ": WAL holds " + std::to_string(records.size()) +
             " frames, expected " + std::to_string(kHorizon);
    }
    if (records != refs[i].records) {
      return name + ": durable release records differ from the bare "
                    "in-memory run";
    }
    if (pass.snapshot_round[i] != kSnapshotEvery ||
        pass.replay_rounds[i] != kCrashAfter - kSnapshotEvery) {
      return name + ": recovery restored round " +
             std::to_string(pass.snapshot_round[i]) + " and replayed " +
             std::to_string(pass.replay_rounds[i]) + " rounds";
    }
    if (!LogsEqual(products[i]->log(), refs[i].log)) {
      return name + ": captured release log differs from the bare "
                    "in-memory run";
    }
    for (const std::string& r : records) {
      crc = DigestBytes(crc, r.data(), r.size());
    }
    *wal_bytes += static_cast<double>(FileBytes(DurableSession::WalPath(dir)));
    *snapshot_bytes +=
        static_cast<double>(FileBytes(DurableSession::SnapshotPath(dir)));
  }
  auto reader = ld::archive::ArchiveReader::Open(archive_path);
  if (!reader.ok()) {
    return "sealed archive does not open: " + reader.status().ToString();
  }
  for (Synth s : kAllSynths) {
    const std::string name = SynthName(s);
    auto label = reader.value().FindLabel(name);
    if (!label.ok()) return "archive lacks label " + name;
    auto log = reader.value().ToReleaseLog(label.value());
    if (!log.ok() ||
        !LogsEqual(log.value(), products[static_cast<size_t>(s)]->log())) {
      return name + ": archive ToReleaseLog differs from the captured log";
    }
    crc = DigestLog(crc, log.value());
  }
  *digest = crc;
  return "";
}

}  // namespace

Status RunDurable1m(const Args& args, WorkloadResult* out) {
  const int64_t n = args.tiny ? 5000 : 1000000;
  const int lanes = DefaultLanes(args);
  const int setup_reps = 15;
  out->lanes = lanes;

  std::unique_ptr<ld::util::ThreadPool> pool;
  std::unique_ptr<Inputs> in;
  for (int r = 0; r < setup_reps; ++r) {
    in.reset();
    pool.reset();
    const auto start = Clock::now();
    pool = std::make_unique<ld::util::ThreadPool>(lanes);
    LONGDP_ASSIGN_OR_RETURN(Inputs made,
                            MakeInputs(n, args.seed, pool.get(), true));
    in = std::make_unique<Inputs>(std::move(made));
    out->setup_s.push_back(SecondsSince(start));
  }
  Context ctx;
  ctx.in = in.get();
  ctx.pool = pool.get();
  ctx.seed = args.seed;
  out->provenance.push_back({"panel", std::to_string(n) + " households x " +
                                          std::to_string(kHorizon) +
                                          " rounds"});
  out->provenance.push_back(
      {"flush_policy", "fsync per WAL frame, snapshot every 4 rounds, "
                       "crash after round 7"});
  out->provenance.push_back({"durable_dir", args.workdir});
  out->provenance.push_back({"durable_fs", FilesystemType(args.workdir)});

  // Bare in-memory reference runs (untimed).
  Reference refs[3];
  LONGDP_RETURN_NOT_OK(BareRun<ld::persist::FixedWindowTraits>(ctx, &refs[0]));
  LONGDP_RETURN_NOT_OK(BareRun<ld::persist::CumulativeTraits>(ctx, &refs[1]));
  LONGDP_RETURN_NOT_OK(BareRun<ld::persist::CategoricalTraits>(ctx, &refs[2]));

  std::vector<double> recover_s, seal_s;
  double snapshot_bytes = 0.0;
  std::optional<uint32_t> first_digest;
  // Operations per pass: the rounds, then a recovery and a seal per product.
  const int64_t ops_per_pass = kHorizon + 2 * 3;
  // Runs pass `index`; `record` = false runs it for its gates only.
  auto run_pass = [&](int64_t index, bool traced, bool record) -> Status {
    Tracer* tr = traced ? &out->tracer : nullptr;
    Measure* m = traced ? &out->traced : &out->plain;
    const std::string pass_dir =
        args.workdir + "/pass" + std::to_string(index);
    const std::string archive_path = pass_dir + "/releases.ldpa";
    out->attempted += ops_per_pass;
    if (::mkdir(pass_dir.c_str(), 0755) != 0) {
      return Status::IOError("cannot create " + pass_dir);
    }
    {  // The pass's shared archive starts sealed and empty.
      LONGDP_ASSIGN_OR_RETURN(auto w,
                              ld::archive::ArchiveWriter::Create(archive_path));
      LONGDP_RETURN_NOT_OK(w.Finish());
    }
    std::vector<std::unique_ptr<Product>> products;
    products.push_back(MakeProduct<ld::persist::FixedWindowTraits>(
        traced, ctx, pass_dir + "/fixed_window", tr));
    products.push_back(MakeProduct<ld::persist::CumulativeTraits>(
        traced, ctx, pass_dir + "/cumulative", tr));
    products.push_back(MakeProduct<ld::persist::CategoricalTraits>(
        traced, ctx, pass_dir + "/categorical", tr));

    PassOut pass;
    const auto pass_start = Clock::now();
    const Status st = RunPass(products, archive_path, &pass);
    pass.wall_s = SecondsSince(pass_start);
    if (!st.ok()) {
      out->Fail(ops_per_pass, st.ToString());
      RemoveTree(pass_dir);
      return Status::OK();
    }

    uint32_t digest = 0;
    double wal_bytes = 0.0;
    const std::string failure =
        CheckPass(pass_dir, archive_path, refs, products, pass, &digest,
                  &wal_bytes, &snapshot_bytes);
    const double archive_bytes = static_cast<double>(FileBytes(archive_path));
    RemoveTree(pass_dir);
    if (!failure.empty()) {
      out->Fail(ops_per_pass, failure);
      return Status::OK();
    }
    if (!first_digest.has_value()) first_digest = digest;
    if (digest != *first_digest) {
      out->Fail(ops_per_pass, "pass digest differs from the first pass");
      return Status::OK();
    }
    if (!record) return Status::OK();

    m->op_s.insert(m->op_s.end(), pass.round_s.begin(), pass.round_s.end());
    m->EndSession(pass.wall_s, 3.0 * static_cast<double>(n) *
                                   static_cast<double>(pass.round_s.size()));
    if (!traced) {
      recover_s.insert(recover_s.end(), pass.recover_s.begin(),
                       pass.recover_s.end());
      seal_s.insert(seal_s.end(), pass.seal_s.begin(), pass.seal_s.end());
    } else {
      out->traced_wall_s += pass.wall_s;
      int64_t replayed = 0;
      for (int64_t r : pass.replay_rounds) replayed += r;
      out->tracer.SetCounter(Counter::kReplayRounds,
                             static_cast<double>(replayed));
      out->tracer.SetCounter(Counter::kWalBytes, wal_bytes);
      out->tracer.SetCounter(Counter::kArchiveBytes, archive_bytes);
    }
    return Status::OK();
  };

  // One untimed warm-up pass: the first pass of a process pays first-touch
  // page faults and allocator growth for ~80 MB of snapshot buffers, which
  // later passes reuse.
  LONGDP_RETURN_NOT_OK(run_pass(0, /*traced=*/false, /*record=*/false));
  const auto start = Clock::now();
  int64_t units = 0;
  while (!Done(args, start, units, 1)) {
    LONGDP_RETURN_NOT_OK(run_pass(units + 1, TraceUnit(args, units), true));
    ++units;
  }
  out->digest = first_digest.value_or(0);
  out->tail_q = 0.9;
  out->window_sessions = 1;
  out->aligned_sessions = true;  // every pass runs the same script

  out->figures.push_back({"user_rounds_per_s", out->plain.Throughput(), "1/s",
                          "n x synthesizer rounds / summed durable-round "
                          "latency"});
  out->figures.push_back(
      {"round_p50_ms", Median(out->plain.op_s) * 1e3, "ms",
       "over " + std::to_string(out->plain.op_s.size()) +
           " durable rounds of the three products"});
  out->figures.push_back({"round_p90_ms",
                          Quantile(out->plain.op_s, 0.9) * 1e3, "ms", ""});
  out->figures.push_back(
      {"recover_s", Median(recover_s), "s",
       "median over " + std::to_string(recover_s.size()) + " sessions"});
  out->figures.push_back({"seal_s", Median(seal_s), "s",
                          "median over " + std::to_string(seal_s.size()) +
                              " sessions"});
  out->figures.push_back({"snapshot_mb", snapshot_bytes / 1e6, "MB",
                          "sum of the three final snapshot files"});
  return Status::OK();
}

}  // namespace perfbench
