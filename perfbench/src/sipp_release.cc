// sipp_release: the paper's experiment loop. One panel of n = 23,374
// households (keyed SimulateSipp plus the employment chain) is released
// over T = 12 rounds by all three synthesizers, again and again under
// independent synthesizer seeds, with no worker pool. Each repetition
// captures a ReleaseLog and answers the quarterly (Figure 1) and cumulative
// (Figure 2) queries in memory. core does the work; persist and archive
// are never called.
//
// The primary operation is one release round of all three synthesizers:
// ObserveRound, Capture, and the answers due at that round. A session is
// one repetition (create, twelve rounds, drop).
//
// Gate: repetitions cycle over a fixed set of seed slots. Before timing,
// every slot is run once with the answers computed on the analyst side
// (ReleaseAnalyzer over the captured log); every timed repetition must
// reproduce its slot's digest of release log plus answers bit for bit.

#include <memory>
#include <vector>

#include "bench.h"
#include "core/release_analyzer.h"
#include "core/release_log.h"
#include "inputs.h"

namespace perfbench {

namespace ld = longdp;

namespace {

constexpr uint64_t kPurposeSynth = 10;

struct Context {
  const Inputs* in = nullptr;
  std::vector<ld::query::WindowPredicatePtr> preds;
};

bool IsQuarterEnd(int64_t t) {
  for (int64_t q : kQuarterEnds) {
    if (q == t) return true;
  }
  return false;
}

/// Records one primary operation's latency.
class OpTimer {
 public:
  explicit OpTimer(Measure* m) : m_(m), start_(Clock::now()) {}
  ~OpTimer() {
    if (m_ != nullptr) m_->op_s.push_back(SecondsSince(start_));
  }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  Measure* m_;
  Clock::time_point start_;
};

/// Runs one repetition for seed slot `slot`. With `analyst` set the answers
/// come from a ReleaseAnalyzer over the captured log (the reference path);
/// otherwise from the synthesizers, timed into `m` and traced into `tr`.
Status RunRepetition(const Context& ctx, uint64_t seed, int64_t slot,
                     bool analyst, Tracer* tr, Measure* m, uint32_t* digest) {
  ld::core::ReleaseLog log;
  std::vector<double> answers;
  const uint64_t uslot = static_cast<uint64_t>(slot);

  std::unique_ptr<ld::core::FixedWindowSynthesizer> fixed;
  std::unique_ptr<ld::core::CumulativeSynthesizer> cumulative;
  std::unique_ptr<ld::core::CategoricalWindowSynthesizer> categorical;
  {
    Span span(tr, Layer::kCoreCreate);
    LONGDP_ASSIGN_OR_RETURN(
        fixed, ld::core::FixedWindowSynthesizer::Create(FixedWindowOptions(
                   DeriveSeed(seed, kPurposeSynth + 0, uslot), nullptr)));
    LONGDP_ASSIGN_OR_RETURN(
        cumulative, ld::core::CumulativeSynthesizer::Create(CumulativeOptions(
                        DeriveSeed(seed, kPurposeSynth + 1, uslot), nullptr)));
    LONGDP_ASSIGN_OR_RETURN(
        categorical,
        ld::core::CategoricalWindowSynthesizer::Create(CategoricalOptions(
            DeriveSeed(seed, kPurposeSynth + 2, uslot), nullptr)));
  }
  // One operation is one release round of the three products: fixed
  // window (k = 3) and cumulative over the poverty bits, categorical
  // (A = 3, k = 3) over the employment chain.
  for (int64_t t = 1; t <= kHorizon; ++t) {
    OpTimer op(m);
    {
      Span span(tr, Layer::kCoreObserveFixedWindow);
      LONGDP_RETURN_NOT_OK(fixed->ObserveRound(ctx.in->sipp.Round(t)));
    }
    {
      Span span(tr, Layer::kCoreObserveCumulative);
      LONGDP_RETURN_NOT_OK(cumulative->ObserveRound(ctx.in->sipp.Round(t)));
    }
    {
      Span span(tr, Layer::kCoreObserveCategorical);
      LONGDP_RETURN_NOT_OK(categorical->ObserveRound(
          ctx.in->employment[static_cast<size_t>(t - 1)]));
    }
    {
      Span span(tr, Layer::kCoreCapture);
      LONGDP_RETURN_NOT_OK(log.Capture(*fixed));
      LONGDP_RETURN_NOT_OK(log.Capture(*cumulative));
      LONGDP_RETURN_NOT_OK(log.Capture(*categorical));
    }
    if (analyst) continue;
    Span span(tr, Layer::kCoreAnswer);
    if (t >= kWindowK && IsQuarterEnd(t)) {
      for (const auto& pred : ctx.preds) {
        LONGDP_ASSIGN_OR_RETURN(const double v, fixed->DebiasedAnswer(*pred));
        answers.push_back(v);
      }
    }
    for (int64_t b : kCumulativeThresholds) {
      LONGDP_ASSIGN_OR_RETURN(const double v, cumulative->Answer(b));
      answers.push_back(v);
    }
    if (t >= kWindowK) {
      for (uint64_t code : kCategoricalCodes) {
        LONGDP_ASSIGN_OR_RETURN(const double v,
                                categorical->DebiasedBinFraction(code));
        answers.push_back(v);
      }
    }
  }
  {
    Span span(tr, Layer::kCoreDrop);
    fixed.reset();
    cumulative.reset();
    categorical.reset();
  }

  if (analyst) {
    // The reference: the same questions answered from the release log
    // alone, in the order the synthesizer path answers them.
    const size_t expect_window = static_cast<size_t>(kHorizon - kWindowK + 1);
    if (log.window_releases().size() != expect_window ||
        log.cumulative_releases().size() != static_cast<size_t>(kHorizon) ||
        log.categorical_releases().size() != expect_window) {
      return Status::Internal("release log has the wrong number of releases");
    }
    ld::core::ReleaseAnalyzer analyzer(log);
    for (int64_t t = 1; t <= kHorizon; ++t) {
      if (t >= kWindowK && IsQuarterEnd(t)) {
        for (const auto& pred : ctx.preds) {
          LONGDP_ASSIGN_OR_RETURN(const double v,
                                  analyzer.WindowFraction(t, *pred));
          answers.push_back(v);
        }
      }
      for (int64_t b : kCumulativeThresholds) {
        LONGDP_ASSIGN_OR_RETURN(const double v,
                                analyzer.CumulativeFraction(t, b));
        answers.push_back(v);
      }
      if (t >= kWindowK) {
        for (uint64_t code : kCategoricalCodes) {
          LONGDP_ASSIGN_OR_RETURN(const double v,
                                  analyzer.CategoricalBinFraction(t, code));
          answers.push_back(v);
        }
      }
    }
  }

  uint32_t crc = DigestLog(0, log);
  for (double v : answers) crc = DigestDouble(crc, v);
  *digest = crc;
  return Status::OK();
}

}  // namespace

Status RunSippRelease(const Args& args, WorkloadResult* out) {
  const int64_t n = args.tiny ? 2000 : kSippHouseholds;
  const int64_t slots = args.tiny ? 4 : 32;
  const int setup_reps = 15;
  const double ops_per_rep = static_cast<double>(kHorizon);

  std::unique_ptr<Inputs> in;
  for (int r = 0; r < setup_reps; ++r) {
    in.reset();
    const auto start = Clock::now();
    LONGDP_ASSIGN_OR_RETURN(Inputs made,
                            MakeInputs(n, args.seed, nullptr, false));
    in = std::make_unique<Inputs>(std::move(made));
    out->setup_s.push_back(SecondsSince(start));
  }
  Context ctx;
  ctx.in = in.get();
  ctx.preds = QuarterlyPredicates();
  out->lanes = 1;
  out->provenance.push_back({"panel", std::to_string(n) + " households x " +
                                          std::to_string(kHorizon) +
                                          " rounds, no pool"});
  out->provenance.push_back({"seed_slots", std::to_string(slots)});

  // Reference digests, one per seed slot (untimed).
  std::vector<uint32_t> reference(static_cast<size_t>(slots));
  uint32_t digest = 0;
  for (int64_t s = 0; s < slots; ++s) {
    LONGDP_RETURN_NOT_OK(RunRepetition(ctx, args.seed, s, /*analyst=*/true,
                                       nullptr, nullptr,
                                       &reference[static_cast<size_t>(s)]));
    digest = DigestBytes(digest, &reference[static_cast<size_t>(s)],
                         sizeof(uint32_t));
  }
  out->digest = digest;

  const auto start = Clock::now();
  int64_t units = 0;
  while (!Done(args, start, units, 2)) {
    const bool traced = TraceUnit(args, units);
    Measure* m = traced ? &out->traced : &out->plain;
    const int64_t slot = units % slots;
    uint32_t crc = 0;
    const auto unit_start = Clock::now();
    const Status st = RunRepetition(ctx, args.seed, slot, /*analyst=*/false,
                                    traced ? &out->tracer : nullptr, m, &crc);
    const double unit_s = SecondsSince(unit_start);
    out->attempted += static_cast<int64_t>(ops_per_rep);
    ++units;
    if (!st.ok()) {
      out->Fail(static_cast<int64_t>(ops_per_rep), st.ToString());
      continue;
    }
    m->EndSession(unit_s, 3.0 * static_cast<double>(n) * ops_per_rep);
    if (traced) out->traced_wall_s += unit_s;
    if (crc != reference[static_cast<size_t>(slot)]) {
      out->Fail(static_cast<int64_t>(ops_per_rep),
                "repetition for seed slot " + std::to_string(slot) +
                    " differs from its analyst-side reference");
    }
  }
  out->tail_q = 0.9;
  // About 0.3 s and 1,200 release rounds per window.
  out->window_sessions = 100;
  out->figures.push_back({"user_rounds_per_s", out->plain.Throughput(), "1/s",
                          "n x synthesizer rounds / summed round latency"});
  return Status::OK();
}

}  // namespace perfbench
