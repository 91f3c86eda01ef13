// archive_serve: the analyst's read path.
//
// Set-up builds one .ldpa archive holding the release logs of ~1k
// SIPP-scale runs (n = 23,374, T = 12; run i uses synthesizer i mod 3) and
// two 1M-household synthetic panels (a fixed-window cohort and the
// cumulative synthetic records). A single client then replays a seeded,
// fixed mix of queries in a closed loop:
//
//   95%  release-column and index queries: Select, CountEntries,
//        GroupCountByLabel, debiased window, cumulative, CountOccExact,
//        categorical bin fraction;
//    5%  cohort scans over a 1M panel: CohortWindowHistogram and the four
//        spell statistics.
//
// The class counts are exact, so p50 sits inside the first class and p99
// inside the second on every seed. A session is ArchiveReader::Open (map
// plus full CRC verify) followed by the whole mix; the primary operation is
// one query.
//
// Gate: every served answer must equal, bit for bit, the reference
// computed at set-up from the in-memory ReleaseAnalyzer, the in-memory
// panels' WindowHistogram, and query::spells.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "archive/exec.h"
#include "archive/reader.h"
#include "archive/writer.h"
#include "bench.h"
#include "core/release_analyzer.h"
#include "core/release_log.h"
#include "inputs.h"
#include "query/spells.h"
#include "util/substream.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace ld = longdp;
using ld::archive::EntryKind;
using ld::archive::Exec;

namespace {

constexpr uint64_t kPurposeRuns = 30;
constexpr uint64_t kPurposePanels = 31;
constexpr uint64_t kPurposeMix = 32;
constexpr int64_t kSpellT = kHorizon;

enum class QKind {
  kSelect,
  kCount,
  kGroup,
  kWindow,
  kCumulative,
  kCountOcc,
  kCategorical,
  kCohortHistogram,
  kSpellEver,
  kSpellOngoing,
  kSpellHistogram,
  kSpellMean,
};

/// Queries of each kind per block of the mix (200 queries: 190 release
/// and index queries, 10 cohort scans).
constexpr std::pair<QKind, int> kBlockMix[] = {
    {QKind::kSelect, 40},        {QKind::kCount, 20},
    {QKind::kGroup, 10},         {QKind::kWindow, 40},
    {QKind::kCumulative, 30},    {QKind::kCountOcc, 20},
    {QKind::kCategorical, 30},   {QKind::kCohortHistogram, 4},
    {QKind::kSpellEver, 2},      {QKind::kSpellOngoing, 2},
    {QKind::kSpellHistogram, 1}, {QKind::kSpellMean, 1},
};
constexpr int kBlock = 200;
constexpr int kBlocks = 10;

struct Query {
  QKind kind = QKind::kSelect;
  int64_t run = 0;    ///< release-stream index (label "run<i>")
  int panel = 0;      ///< panel index (label "panel<j>")
  EntryKind entry_kind = EntryKind::kWindow;
  int64_t t = 0;   ///< release time, or first of a time range
  int64_t t2 = 0;  ///< last release time of the range the query selects
  int64_t param = 0;  ///< predicate index, threshold b, code, or min_len
};

struct Answer {
  std::vector<int64_t> ints;
  double value = 0.0;
  bool operator==(const Answer& o) const {
    return ints == o.ints && value == o.value;
  }
};

struct Archive {
  std::vector<ld::core::ReleaseLog> logs;
  std::vector<ld::data::LongitudinalDataset> panels;
};

std::string RunLabel(int64_t run) { return "run" + std::to_string(run); }
std::string PanelLabel(int panel) { return "panel" + std::to_string(panel); }

EntryKind KindOfRun(int64_t run) {
  switch (run % 3) {
    case 0:
      return EntryKind::kWindow;
    case 1:
      return EntryKind::kCumulative;
    default:
      return EntryKind::kCategorical;
  }
}

/// First release time of a run's stream (window kinds start at t = k).
int64_t FirstT(EntryKind kind) {
  return kind == EntryKind::kCumulative ? 1 : kWindowK;
}

Status RunOne(const Inputs& in, int64_t run, uint64_t seed,
              ld::core::ReleaseLog* log) {
  const uint64_t s = DeriveSeed(seed, kPurposeRuns, static_cast<uint64_t>(run));
  switch (KindOfRun(run)) {
    case EntryKind::kWindow: {
      LONGDP_ASSIGN_OR_RETURN(auto synth,
                              ld::core::FixedWindowSynthesizer::Create(
                                  FixedWindowOptions(s, nullptr)));
      for (int64_t t = 1; t <= kHorizon; ++t) {
        LONGDP_RETURN_NOT_OK(synth->ObserveRound(in.sipp.Round(t)));
        LONGDP_RETURN_NOT_OK(log->Capture(*synth));
      }
      return Status::OK();
    }
    case EntryKind::kCumulative: {
      LONGDP_ASSIGN_OR_RETURN(auto synth,
                              ld::core::CumulativeSynthesizer::Create(
                                  CumulativeOptions(s, nullptr)));
      for (int64_t t = 1; t <= kHorizon; ++t) {
        LONGDP_RETURN_NOT_OK(synth->ObserveRound(in.sipp.Round(t)));
        LONGDP_RETURN_NOT_OK(log->Capture(*synth));
      }
      return Status::OK();
    }
    default: {
      LONGDP_ASSIGN_OR_RETURN(auto synth,
                              ld::core::CategoricalWindowSynthesizer::Create(
                                  CategoricalOptions(s, nullptr)));
      for (int64_t t = 1; t <= kHorizon; ++t) {
        LONGDP_RETURN_NOT_OK(synth->ObserveRound(
            in.employment[static_cast<size_t>(t - 1)]));
        LONGDP_RETURN_NOT_OK(log->Capture(*synth));
      }
      return Status::OK();
    }
  }
}

/// One set-up: generate the inputs, release every run (fanned out over the
/// pool, one run per task), release the panels, and write the archive.
Status BuildArchive(const Args& args, int64_t runs, int64_t panel_n,
                    ld::util::ThreadPool* pool, const std::string& path,
                    Archive* out) {
  LONGDP_ASSIGN_OR_RETURN(Inputs in,
                          MakeInputs(args.tiny ? 2000 : kSippHouseholds,
                                     args.seed, pool, false));
  out->logs.assign(static_cast<size_t>(runs), ld::core::ReleaseLog());
  std::vector<Status> status(static_cast<size_t>(runs));
  pool->ParallelFor(runs, [&](int, int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end; ++r) {
      status[static_cast<size_t>(r)] =
          RunOne(in, r, args.seed, &out->logs[static_cast<size_t>(r)]);
    }
  });
  for (const Status& st : status) LONGDP_RETURN_NOT_OK(st);

  LONGDP_ASSIGN_OR_RETURN(
      Inputs big, MakeInputs(panel_n, DeriveSeed(args.seed, kPurposePanels, 0),
                             pool, false));
  out->panels.clear();
  {
    LONGDP_ASSIGN_OR_RETURN(
        auto synth,
        ld::core::FixedWindowSynthesizer::Create(FixedWindowOptions(
            DeriveSeed(args.seed, kPurposePanels, 1), pool)));
    for (int64_t t = 1; t <= kHorizon; ++t) {
      LONGDP_RETURN_NOT_OK(synth->ObserveRound(big.sipp.Round(t)));
    }
    LONGDP_ASSIGN_OR_RETURN(auto panel, synth->cohort().ToDataset(kHorizon));
    out->panels.push_back(std::move(panel));
  }
  {
    LONGDP_ASSIGN_OR_RETURN(
        auto synth, ld::core::CumulativeSynthesizer::Create(CumulativeOptions(
                        DeriveSeed(args.seed, kPurposePanels, 2), pool)));
    for (int64_t t = 1; t <= kHorizon; ++t) {
      LONGDP_RETURN_NOT_OK(synth->ObserveRound(big.sipp.Round(t)));
    }
    LONGDP_ASSIGN_OR_RETURN(auto panel, synth->ToDataset());
    out->panels.push_back(std::move(panel));
  }

  LONGDP_ASSIGN_OR_RETURN(auto writer,
                          ld::archive::ArchiveWriter::Create(path));
  for (int64_t r = 0; r < runs; ++r) {
    LONGDP_RETURN_NOT_OK(writer.AppendReleaseLog(
        RunLabel(r), out->logs[static_cast<size_t>(r)]));
  }
  for (size_t p = 0; p < out->panels.size(); ++p) {
    LONGDP_RETURN_NOT_OK(
        writer.AppendCohort(PanelLabel(static_cast<int>(p)), out->panels[p]));
  }
  return writer.Finish();
}

// ---- the query mix ----------------------------------------------------------

std::vector<Query> MakeMix(uint64_t seed, int64_t runs) {
  ld::util::SubstreamRng rng(DeriveSeed(seed, kPurposeMix, 0),
                             ld::util::substream::kGeneric);
  auto uniform = [&](int64_t lo, int64_t hi) {  // inclusive
    return lo + static_cast<int64_t>(
                    rng.UniformInt(static_cast<uint64_t>(hi - lo + 1)));
  };
  // A random run whose stream has the given kind.
  auto run_of = [&](EntryKind kind) {
    const int64_t offset = kind == EntryKind::kWindow       ? 0
                           : kind == EntryKind::kCumulative ? 1
                                                            : 2;
    const int64_t count = (runs - offset + 2) / 3;
    return uniform(0, count - 1) * 3 + offset;
  };
  const EntryKind release_kinds[] = {EntryKind::kWindow, EntryKind::kCumulative,
                                     EntryKind::kCategorical};
  std::vector<Query> mix;
  for (int b = 0; b < kBlocks; ++b) {
    std::vector<Query> block;
    for (const auto& [kind, count] : kBlockMix) {
      for (int i = 0; i < count; ++i) {
        Query q;
        q.kind = kind;
        switch (kind) {
          case QKind::kSelect:
            q.run = uniform(0, runs - 1);
            q.entry_kind = KindOfRun(q.run);
            q.t = uniform(FirstT(q.entry_kind), kHorizon);
            q.t2 = std::min<int64_t>(kHorizon, q.t + 3);
            break;
          case QKind::kCount:
          case QKind::kGroup:
            q.entry_kind = release_kinds[uniform(0, 2)];
            q.t = uniform(1, kHorizon);
            q.t2 = uniform(q.t, kHorizon);
            break;
          case QKind::kWindow:
            q.entry_kind = EntryKind::kWindow;
            q.run = run_of(q.entry_kind);
            q.t = q.t2 = uniform(kWindowK, kHorizon);
            q.param = uniform(0, 3);
            break;
          case QKind::kCumulative:
            q.entry_kind = EntryKind::kCumulative;
            q.run = run_of(q.entry_kind);
            q.t = q.t2 = uniform(1, kHorizon);
            q.param = uniform(1, 6);
            break;
          case QKind::kCountOcc:
            q.entry_kind = EntryKind::kCumulative;
            q.run = run_of(q.entry_kind);
            q.t = uniform(1, kHorizon - 1);
            q.t2 = uniform(q.t + 1, kHorizon);
            q.param = uniform(1, 3);
            break;
          case QKind::kCategorical:
            q.entry_kind = EntryKind::kCategorical;
            q.run = run_of(q.entry_kind);
            q.t = q.t2 = uniform(kWindowK, kHorizon);
            q.param = uniform(0, 26);
            break;
          case QKind::kCohortHistogram:
            q.panel = i % 2;
            q.t = uniform(kWindowK, kHorizon);
            break;
          case QKind::kSpellEver:
          case QKind::kSpellOngoing:
            q.panel = i % 2;
            q.t = kSpellT;
            q.param = kind == QKind::kSpellEver ? 3 : 2;
            break;
          case QKind::kSpellHistogram:
          case QKind::kSpellMean:
            q.panel = b % 2;
            q.t = kSpellT;
            break;
        }
        block.push_back(q);
      }
    }
    // Fisher-Yates with the keyed stream: the order is seeded, the class
    // counts are exact.
    for (size_t i = block.size(); i > 1; --i) {
      const size_t j = static_cast<size_t>(rng.UniformInt(i));
      std::swap(block[i - 1], block[j]);
    }
    mix.insert(mix.end(), block.begin(), block.end());
  }
  return mix;
}

// ---- reference answers (in memory) ------------------------------------------

std::vector<int64_t> ReleaseTimes(const ld::core::ReleaseLog& log,
                                  EntryKind kind) {
  std::vector<int64_t> ts;
  if (kind == EntryKind::kWindow) {
    for (const auto& r : log.window_releases()) ts.push_back(r.t);
  } else if (kind == EntryKind::kCumulative) {
    for (const auto& r : log.cumulative_releases()) ts.push_back(r.t);
  } else {
    for (const auto& r : log.categorical_releases()) ts.push_back(r.t);
  }
  return ts;
}

using Predicates = std::vector<ld::query::WindowPredicatePtr>;

Result<Answer> Reference(const Query& q, const Archive& ar,
                         const Predicates& preds) {
  Answer a;
  const int64_t runs = static_cast<int64_t>(ar.logs.size());
  const ld::core::ReleaseLog& log = ar.logs[static_cast<size_t>(q.run)];
  const ld::data::LongitudinalDataset& panel =
      ar.panels[static_cast<size_t>(q.panel)];
  auto in_range = [&](int64_t t) { return t >= q.t && t <= q.t2; };
  switch (q.kind) {
    case QKind::kSelect:
      for (int64_t t : ReleaseTimes(log, q.entry_kind)) {
        if (in_range(t)) a.ints.push_back(t);
      }
      return a;
    case QKind::kCount:
    case QKind::kGroup: {
      // Labels are interned in append order: run0..run{R-1}, then panels.
      std::vector<int64_t> per_label(ar.logs.size() + ar.panels.size(), 0);
      for (int64_t r = 0; r < runs; ++r) {
        for (int64_t t : ReleaseTimes(ar.logs[static_cast<size_t>(r)],
                                      q.entry_kind)) {
          if (in_range(t)) ++per_label[static_cast<size_t>(r)];
        }
      }
      if (q.kind == QKind::kGroup) {
        a.ints = per_label;
      } else {
        int64_t total = 0;
        for (int64_t c : per_label) total += c;
        a.ints.push_back(total);
      }
      return a;
    }
    case QKind::kWindow: {
      const ld::core::ReleaseAnalyzer an(log);
      const auto& pred = *preds[static_cast<size_t>(q.param)];
      LONGDP_ASSIGN_OR_RETURN(a.value, an.WindowFraction(q.t, pred));
      return a;
    }
    case QKind::kCumulative: {
      const ld::core::ReleaseAnalyzer an(log);
      LONGDP_ASSIGN_OR_RETURN(a.value, an.CumulativeFraction(q.t, q.param));
      return a;
    }
    case QKind::kCountOcc: {
      const ld::core::ReleaseAnalyzer an(log);
      LONGDP_ASSIGN_OR_RETURN(const int64_t c,
                              an.CountOccExact(q.t, q.t2, q.param));
      a.ints.push_back(c);
      return a;
    }
    case QKind::kCategorical: {
      const ld::core::ReleaseAnalyzer an(log);
      LONGDP_ASSIGN_OR_RETURN(
          a.value,
          an.CategoricalBinFraction(q.t, static_cast<uint64_t>(q.param)));
      return a;
    }
    case QKind::kCohortHistogram: {
      LONGDP_ASSIGN_OR_RETURN(a.ints, panel.WindowHistogram(q.t, kWindowK));
      return a;
    }
    case QKind::kSpellEver: {
      LONGDP_ASSIGN_OR_RETURN(a.value,
                              ld::query::EverHadSpell(panel, q.t, q.param));
      return a;
    }
    case QKind::kSpellOngoing: {
      LONGDP_ASSIGN_OR_RETURN(
          a.value, ld::query::OngoingSpellAtLeast(panel, q.t, q.param));
      return a;
    }
    case QKind::kSpellHistogram: {
      LONGDP_ASSIGN_OR_RETURN(a.ints,
                              ld::query::SpellLengthHistogram(panel, q.t));
      return a;
    }
    case QKind::kSpellMean: {
      LONGDP_ASSIGN_OR_RETURN(a.value, ld::query::MeanSpellLength(panel, q.t));
      return a;
    }
  }
  return Status::Internal("unknown query kind");
}

// ---- serving ----------------------------------------------------------------

/// Looks up the entries a release query reads (the index part of it).
Result<std::vector<const ld::archive::ArchiveEntry*>> SelectRun(
    const ld::archive::ArchiveReader& reader, const Exec& exec, int64_t run,
    EntryKind kind, int64_t t_min, int64_t t_max) {
  LONGDP_ASSIGN_OR_RETURN(const uint32_t label,
                          reader.FindLabel(RunLabel(run)));
  Exec::Filter f;
  f.kind = kind;
  f.label_id = label;
  f.t_min = t_min;
  f.t_max = t_max;
  return exec.Select(f);
}

Result<const ld::archive::ArchiveEntry*> SelectPanel(
    const ld::archive::ArchiveReader& reader, const Exec& exec, int panel) {
  LONGDP_ASSIGN_OR_RETURN(const uint32_t label,
                          reader.FindLabel(PanelLabel(panel)));
  Exec::Filter f;
  f.kind = EntryKind::kCohort;
  f.label_id = label;
  const auto sel = exec.Select(f);
  if (sel.size() != 1) return Status::Internal("expected one stored panel");
  return sel[0];
}

Result<const ld::archive::ArchiveEntry*> One(
    const std::vector<const ld::archive::ArchiveEntry*>& sel) {
  if (sel.size() != 1) return Status::Internal("expected exactly one entry");
  return sel[0];
}

Result<Answer> Serve(const Query& q, const ld::archive::ArchiveReader& reader,
                     const Exec& exec, const Predicates& preds, Tracer* tr) {
  Answer a;
  std::vector<const ld::archive::ArchiveEntry*> sel;
  const ld::archive::ArchiveEntry* panel = nullptr;
  {
    Span span(tr, Layer::kExecSelect);
    switch (q.kind) {
      case QKind::kCount:
      case QKind::kGroup: {
        Exec::Filter f;
        f.kind = q.entry_kind;
        f.t_min = q.t;
        f.t_max = q.t2;
        if (q.kind == QKind::kCount) {
          a.ints.push_back(exec.CountEntries(f));
        } else {
          a.ints = exec.GroupCountByLabel(f);
        }
        return a;
      }
      case QKind::kSelect:
      case QKind::kWindow:
      case QKind::kCumulative:
      case QKind::kCountOcc:
      case QKind::kCategorical: {
        LONGDP_ASSIGN_OR_RETURN(
            sel, SelectRun(reader, exec, q.run, q.entry_kind, q.t, q.t2));
        if (q.kind != QKind::kSelect) break;
        for (const auto* e : sel) a.ints.push_back(e->t);
        return a;
      }
      default: {
        LONGDP_ASSIGN_OR_RETURN(panel, SelectPanel(reader, exec, q.panel));
        break;
      }
    }
  }
  switch (q.kind) {
    case QKind::kWindow: {
      LONGDP_ASSIGN_OR_RETURN(const auto* e, One(sel));
      Span span(tr, Layer::kExecWindow);
      LONGDP_ASSIGN_OR_RETURN(
          a.value, exec.DebiasedWindowFraction(
                       *e, *preds[static_cast<size_t>(q.param)]));
      return a;
    }
    case QKind::kCumulative: {
      LONGDP_ASSIGN_OR_RETURN(const auto* e, One(sel));
      Span span(tr, Layer::kExecCumulative);
      LONGDP_ASSIGN_OR_RETURN(a.value, exec.CumulativeFraction(*e, q.param));
      return a;
    }
    case QKind::kCountOcc: {
      if (sel.size() < 2) return Status::Internal("CountOcc needs two entries");
      Span span(tr, Layer::kExecCumulative);
      LONGDP_ASSIGN_OR_RETURN(
          const int64_t c, exec.CountOccExact(*sel.front(), *sel.back(),
                                              q.param));
      a.ints.push_back(c);
      return a;
    }
    case QKind::kCategorical: {
      LONGDP_ASSIGN_OR_RETURN(const auto* e, One(sel));
      Span span(tr, Layer::kExecCategorical);
      LONGDP_ASSIGN_OR_RETURN(
          a.value,
          exec.CategoricalBinFraction(*e, static_cast<uint64_t>(q.param)));
      return a;
    }
    case QKind::kCohortHistogram: {
      Span span(tr, Layer::kExecCohortHistogram);
      LONGDP_ASSIGN_OR_RETURN(
          a.ints, exec.CohortWindowHistogram(*panel, q.t, kWindowK));
      return a;
    }
    case QKind::kSpellEver: {
      Span span(tr, Layer::kExecSpell);
      LONGDP_ASSIGN_OR_RETURN(a.value,
                              exec.CohortEverHadSpell(*panel, q.t, q.param));
      return a;
    }
    case QKind::kSpellOngoing: {
      Span span(tr, Layer::kExecSpell);
      LONGDP_ASSIGN_OR_RETURN(
          a.value, exec.CohortOngoingSpellAtLeast(*panel, q.t, q.param));
      return a;
    }
    case QKind::kSpellHistogram: {
      Span span(tr, Layer::kExecSpell);
      LONGDP_ASSIGN_OR_RETURN(a.ints,
                              exec.CohortSpellLengthHistogram(*panel, q.t));
      return a;
    }
    case QKind::kSpellMean: {
      Span span(tr, Layer::kExecSpell);
      LONGDP_ASSIGN_OR_RETURN(a.value, exec.CohortMeanSpellLength(*panel, q.t));
      return a;
    }
    default:
      return Status::Internal("unreachable query kind");
  }
}

}  // namespace

Status RunArchiveServe(const Args& args, WorkloadResult* out) {
  const int64_t runs = args.tiny ? 30 : 1024;
  const int64_t panel_n = args.tiny ? 5000 : 1000000;
  const int lanes = DefaultLanes(args);
  const int setup_reps = 5;
  out->lanes = lanes;
  const std::string path = args.workdir + "/serve.ldpa";

  std::unique_ptr<ld::util::ThreadPool> pool;
  Archive ar;
  for (int r = 0; r < setup_reps; ++r) {
    pool.reset();
    ar = Archive();
    const auto start = Clock::now();
    pool = std::make_unique<ld::util::ThreadPool>(lanes);
    LONGDP_RETURN_NOT_OK(
        BuildArchive(args, runs, panel_n, pool.get(), path, &ar));
    out->setup_s.push_back(SecondsSince(start));
  }
  pool.reset();
  const int64_t archive_bytes = FileBytes(path);
  out->provenance.push_back(
      {"archive", std::to_string(runs) + " SIPP-scale release logs + " +
                      std::to_string(ar.panels.size()) + " panels of " +
                      std::to_string(panel_n) + " households, " +
                      std::to_string(archive_bytes) + " bytes"});
  out->provenance.push_back({"archive_fs", FilesystemType(args.workdir)});
  out->provenance.push_back(
      {"mix", std::to_string(kBlock * kBlocks) +
                  " queries, 95% release/index, 5% cohort scans, one client, "
                  "closed loop"});

  // Reference answers and the digest (untimed).
  const auto preds = QuarterlyPredicates();
  const std::vector<Query> mix = MakeMix(args.seed, runs);
  std::vector<Answer> expected;
  expected.reserve(mix.size());
  uint32_t digest = 0;
  for (const auto& log : ar.logs) digest = DigestLog(digest, log);
  for (const Query& q : mix) {
    LONGDP_ASSIGN_OR_RETURN(Answer a, Reference(q, ar, preds));
    digest = DigestInts(digest, a.ints);
    digest = DigestDouble(digest, a.value);
    expected.push_back(std::move(a));
  }
  out->digest = digest;
  out->tracer.SetCounter(Counter::kArchiveBytes,
                         static_cast<double>(archive_bytes));

  std::vector<double> open_s;
  const auto start = Clock::now();
  int64_t units = 0;
  while (!Done(args, start, units, 2)) {
    const bool traced = TraceUnit(args, units);
    Tracer* tr = traced ? &out->tracer : nullptr;
    Measure* m = traced ? &out->traced : &out->plain;
    ++units;
    const auto unit_start = Clock::now();
    std::optional<ld::archive::ArchiveReader> reader;
    {
      Span span(tr, Layer::kArchiveOpen);
      auto opened = ld::archive::ArchiveReader::Open(path);
      if (!opened.ok()) return opened.status();
      reader.emplace(std::move(opened).value());
    }
    const double open_elapsed = SecondsSince(unit_start);
    ++out->attempted;
    if (!traced) open_s.push_back(open_elapsed);
    const Exec exec(*reader);
    double checks_s = 0.0;
    for (size_t qi = 0; qi < mix.size(); ++qi) {
      const auto q_start = Clock::now();
      Result<Answer> served = Serve(mix[qi], *reader, exec, preds, tr);
      const double q_s = SecondsSince(q_start);
      m->op_s.push_back(q_s);
      ++out->attempted;
      const auto check_start = Clock::now();
      if (!served.ok()) {
        out->Fail(1, "query " + std::to_string(qi) + ": " +
                         served.status().ToString());
      } else if (!(served.value() == expected[qi])) {
        out->Fail(1, "query " + std::to_string(qi) +
                         " answer differs from the in-memory reference");
      }
      checks_s += SecondsSince(check_start);
    }
    reader.reset();
    // The session is the open plus the queries; the answer checks are the
    // benchmark's own work and are left out.
    const double unit_s = SecondsSince(unit_start) - checks_s;
    m->EndSession(unit_s, static_cast<double>(mix.size()));
    if (traced) out->traced_wall_s += unit_s;
  }
  out->tail_q = 0.99;
  out->window_sessions = 1;
  out->aligned_sessions = true;  // every session replays the same mix

  out->figures.push_back(
      {"query_p50_us", Median(out->plain.op_s) * 1e6, "us",
       "over " + std::to_string(out->plain.op_s.size()) + " queries"});
  out->figures.push_back({"query_p99_us",
                          Quantile(out->plain.op_s, 0.99) * 1e6, "us", ""});
  out->figures.push_back(
      {"queries_per_s", out->plain.Throughput(), "1/s", ""});
  out->figures.push_back(
      {"open_ms", Median(open_s) * 1e3, "ms",
       "median over " + std::to_string(open_s.size()) + " opens"});
  return Status::OK();
}

}  // namespace perfbench
