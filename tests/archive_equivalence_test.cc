// Pins the PR's central contract: every analyst query served from the
// mmap'd archive is BIT-IDENTICAL (EXPECT_EQ on doubles, no tolerance) to
// the same query answered by ReleaseAnalyzer over the CSV-rehydrated
// ReleaseLog — for all three synthesizers, with real DP noise.

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "archive/exec.h"
#include "archive/reader.h"
#include "archive/writer.h"
#include "core/categorical_synthesizer.h"
#include "core/cumulative_synthesizer.h"
#include "core/fixed_window_synthesizer.h"
#include "core/release_analyzer.h"
#include "core/release_log.h"
#include "data/generators.h"
#include "query/spells.h"
#include "query/window_query.h"
#include "util/substream.h"

namespace longdp {
namespace archive {
namespace {

struct Paths {
  std::string csv;
  std::string ldpa;
  explicit Paths(const std::string& name)
      : csv(::testing::TempDir() + "/" + name + ".csv"),
        ldpa(::testing::TempDir() + "/" + name + ".ldpa") {}
  ~Paths() {
    std::remove(csv.c_str());
    std::remove(ldpa.c_str());
  }
};

// Writes `log` both ways and returns the archive-reader + CSV-analyzer pair
// inputs: the loaded log via out_log, the opened reader via out_reader.
void Persist(const core::ReleaseLog& log, const Paths& p,
             core::ReleaseLog* out_log, std::unique_ptr<ArchiveReader>* out) {
  ASSERT_TRUE(log.WriteCsv(p.csv).ok());
  auto writer = ArchiveWriter::Create(p.ldpa);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer.value().AppendReleaseLog("run", log).ok());
  ASSERT_TRUE(writer.value().Finish().ok());
  auto loaded = core::ReleaseLog::LoadCsv(p.csv);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  *out_log = std::move(loaded).value();
  auto reader = ArchiveReader::Open(p.ldpa);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  *out = std::make_unique<ArchiveReader>(std::move(reader).value());
}

TEST(ArchiveEquivalenceTest, WindowQueriesMatchCsvPathBitForBit) {
  util::SubstreamRng rng(101, util::substream::kGeneric);
  auto ds = data::BernoulliIid(400, 12, 0.3, &rng).value();
  core::FixedWindowSynthesizer::Options opt;
  opt.horizon = 12;
  opt.window_k = 3;
  opt.rho = 0.05;  // real noise
  opt.seed = 9001;
  auto synth = core::FixedWindowSynthesizer::Create(opt).value();
  core::ReleaseLog log;
  for (int64_t t = 1; t <= 12; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
    ASSERT_TRUE(log.Capture(*synth).ok());
  }

  Paths p("equiv_window");
  core::ReleaseLog csv_log;
  std::unique_ptr<ArchiveReader> reader;
  Persist(log, p, &csv_log, &reader);
  core::ReleaseAnalyzer analyzer(csv_log);
  Exec exec(*reader);

  std::vector<query::WindowPredicatePtr> preds;
  preds.push_back(query::MakeAllOnes(3));
  preds.push_back(query::MakeAtLeastOnes(3, 2));
  preds.push_back(query::MakeAllOnes(1));
  Exec::Filter windows;
  windows.kind = EntryKind::kWindow;
  auto entries = exec.Select(windows);
  ASSERT_EQ(entries.size(), 10u);  // t = 3..12
  for (const ArchiveEntry* e : entries) {
    for (const auto& pred : preds) {
      EXPECT_EQ(exec.DebiasedWindowFraction(*e, *pred).value(),
                analyzer.WindowFraction(e->t, *pred).value())
          << "t=" << e->t;
      EXPECT_EQ(exec.BiasedWindowFraction(*e, *pred).value(),
                analyzer.BiasedWindowFraction(e->t, *pred).value())
          << "t=" << e->t;
    }
  }
}

TEST(ArchiveEquivalenceTest, CumulativeQueriesMatchCsvPathBitForBit) {
  util::SubstreamRng rng(102, util::substream::kGeneric);
  auto ds = data::BernoulliIid(300, 10, 0.4, &rng).value();
  core::CumulativeSynthesizer::Options opt;
  opt.horizon = 10;
  opt.rho = 0.05;
  opt.seed = 4242;
  auto synth = core::CumulativeSynthesizer::Create(opt).value();
  core::ReleaseLog log;
  for (int64_t t = 1; t <= 10; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
    ASSERT_TRUE(log.Capture(*synth).ok());
  }

  Paths p("equiv_cumulative");
  core::ReleaseLog csv_log;
  std::unique_ptr<ArchiveReader> reader;
  Persist(log, p, &csv_log, &reader);
  core::ReleaseAnalyzer analyzer(csv_log);
  Exec exec(*reader);

  Exec::Filter cumulative;
  cumulative.kind = EntryKind::kCumulative;
  auto entries = exec.Select(cumulative);
  ASSERT_EQ(entries.size(), 10u);
  for (const ArchiveEntry* e : entries) {
    for (int64_t b = 0; b <= 10; b += 2) {
      EXPECT_EQ(exec.CumulativeFraction(*e, b).value(),
                analyzer.CumulativeFraction(e->t, b).value())
          << "t=" << e->t << " b=" << b;
    }
  }
  for (size_t i = 0; i + 1 < entries.size(); i += 2) {
    const ArchiveEntry* e1 = entries[i];
    const ArchiveEntry* e2 = entries[i + 1];
    for (int64_t b = 1; b <= 4; ++b) {
      EXPECT_EQ(exec.CountOccExact(*e1, *e2, b).value(),
                analyzer.CountOccExact(e1->t, e2->t, b).value())
          << "t1=" << e1->t << " b=" << b;
    }
  }
}

TEST(ArchiveEquivalenceTest, CategoricalQueriesMatchCsvPathBitForBit) {
  util::SubstreamRng rng(77, util::substream::kGeneric);
  const int64_t n = 250;
  const int64_t horizon = 8;
  const int alphabet = 3;
  core::CategoricalWindowSynthesizer::Options opt;
  opt.horizon = horizon;
  opt.window_k = 2;
  opt.alphabet = alphabet;
  opt.rho = 0.05;
  opt.seed = 1717;
  auto synth = core::CategoricalWindowSynthesizer::Create(opt).value();
  core::ReleaseLog log;
  for (int64_t t = 0; t < horizon; ++t) {
    std::vector<uint8_t> round(static_cast<size_t>(n));
    for (auto& s : round) {
      s = static_cast<uint8_t>(
          rng.UniformInt(static_cast<uint64_t>(alphabet)));
    }
    ASSERT_TRUE(synth->ObserveRound(round).ok());
    ASSERT_TRUE(log.Capture(*synth).ok());
  }

  Paths p("equiv_categorical");
  core::ReleaseLog csv_log;
  std::unique_ptr<ArchiveReader> reader;
  Persist(log, p, &csv_log, &reader);
  core::ReleaseAnalyzer analyzer(csv_log);
  Exec exec(*reader);

  Exec::Filter categorical;
  categorical.kind = EntryKind::kCategorical;
  auto entries = exec.Select(categorical);
  ASSERT_EQ(entries.size(), 7u);  // t = 2..8
  for (const ArchiveEntry* e : entries) {
    for (uint64_t code = 0; code < 9; ++code) {
      EXPECT_EQ(exec.CategoricalBinFraction(*e, code).value(),
                analyzer.CategoricalBinFraction(e->t, code).value())
          << "t=" << e->t << " code=" << code;
    }
  }
}

TEST(ArchiveEquivalenceTest, OverflowingReleasedValuesAreRefusedOnBothPaths) {
  // Released values read back from disk are not trusted: a forged log whose
  // sums leave int64 must be refused, identically, by the archive executor
  // and by the analyzer over the CSV it was written next to.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  core::ReleaseLog log;
  core::WindowRelease wrapping_count;
  wrapping_count.t = 1;
  wrapping_count.window_k = 1;
  wrapping_count.true_n = 10;
  wrapping_count.histogram = {kMax, kMax};
  ASSERT_TRUE(log.Append(wrapping_count).ok());
  core::WindowRelease wrapping_pad;
  wrapping_pad.t = 2;
  wrapping_pad.window_k = 1;
  wrapping_pad.npad = 2;
  wrapping_pad.true_n = 10;
  wrapping_pad.histogram = {0, -kMax};
  ASSERT_TRUE(log.Append(wrapping_pad).ok());
  ASSERT_TRUE(log.Append(core::CumulativeRelease{1, {-kMax, 5}}).ok());
  ASSERT_TRUE(log.Append(core::CumulativeRelease{2, {kMax, kMax}}).ok());
  core::CategoricalRelease categorical;
  categorical.t = 1;
  categorical.window_k = 1;
  categorical.alphabet = 3;
  categorical.npad = 2;
  categorical.true_n = 10;
  categorical.histogram = {-kMax, 0, 0};
  ASSERT_TRUE(log.Append(categorical).ok());

  Paths p("equiv_forged");
  core::ReleaseLog csv_log;
  std::unique_ptr<ArchiveReader> reader;
  Persist(log, p, &csv_log, &reader);
  core::ReleaseAnalyzer analyzer(csv_log);
  Exec exec(*reader);

  Exec::Filter windows;
  windows.kind = EntryKind::kWindow;
  auto window_entries = exec.Select(windows);
  ASSERT_EQ(window_entries.size(), 2u);
  auto every_bin = query::MakeAtLeastOnes(1, 0);
  auto ones = query::MakeAllOnes(1);
  const ArchiveEntry& w1 = *window_entries[0];
  const ArchiveEntry& w2 = *window_entries[1];
  ASSERT_EQ(w1.t, 1);
  EXPECT_TRUE(exec.WindowCount(w1, *every_bin).status().IsInvalidArgument());
  EXPECT_TRUE(exec.DebiasedWindowFraction(w1, *every_bin)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      analyzer.WindowFraction(1, *every_bin).status().IsInvalidArgument());
  EXPECT_TRUE(
      exec.BiasedWindowFraction(w1, *ones).status().IsInvalidArgument());
  EXPECT_TRUE(
      analyzer.BiasedWindowFraction(1, *ones).status().IsInvalidArgument());
  EXPECT_TRUE(
      exec.DebiasedWindowFraction(w2, *ones).status().IsInvalidArgument());
  EXPECT_TRUE(analyzer.WindowFraction(2, *ones).status().IsInvalidArgument());

  Exec::Filter cumulative;
  cumulative.kind = EntryKind::kCumulative;
  auto rows = exec.Select(cumulative);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(
      exec.CountOccExact(*rows[0], *rows[1], 1).status().IsInvalidArgument());
  EXPECT_TRUE(analyzer.CountOccExact(1, 2, 1).status().IsInvalidArgument());

  Exec::Filter categorical_filter;
  categorical_filter.kind = EntryKind::kCategorical;
  auto bins = exec.Select(categorical_filter);
  ASSERT_EQ(bins.size(), 1u);
  EXPECT_TRUE(
      exec.CategoricalBinFraction(*bins[0], 0).status().IsInvalidArgument());
  EXPECT_TRUE(
      analyzer.CategoricalBinFraction(1, 0).status().IsInvalidArgument());
}

TEST(ArchiveEquivalenceTest, CohortSpellsMatchMaterializedDataset) {
  // The synthesizer's live cohort, archived as packed round columns, must
  // answer the spell/window queries exactly as its materialized
  // LongitudinalDataset does — the "no rehydration" claim.
  util::SubstreamRng rng(103, util::substream::kGeneric);
  auto ds = data::BernoulliIid(350, 9, 0.5, &rng).value();
  core::FixedWindowSynthesizer::Options opt;
  opt.horizon = 9;
  opt.window_k = 3;
  opt.rho = 0.05;
  opt.seed = 31337;
  auto synth = core::FixedWindowSynthesizer::Create(opt).value();
  for (int64_t t = 1; t <= 9; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
  }
  auto panel = synth->cohort().ToDataset(9).value();

  Paths p("equiv_cohort");
  {
    auto writer = ArchiveWriter::Create(p.ldpa);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().AppendCohort("cohort", panel).ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  auto reader = ArchiveReader::Open(p.ldpa);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  Exec exec(reader.value());
  const ArchiveEntry& e = reader.value().entries()[0];
  ASSERT_EQ(e.rounds, panel.rounds());
  for (int64_t t = 3; t <= 9; t += 2) {
    EXPECT_EQ(exec.CohortWindowHistogram(e, t, 3).value(),
              panel.WindowHistogram(t, 3).value());
    EXPECT_EQ(exec.CohortEverHadSpell(e, t, 2).value(),
              query::EverHadSpell(panel, t, 2).value());
    EXPECT_EQ(exec.CohortOngoingSpellAtLeast(e, t, 2).value(),
              query::OngoingSpellAtLeast(panel, t, 2).value());
    EXPECT_EQ(exec.CohortSpellLengthHistogram(e, t).value(),
              query::SpellLengthHistogram(panel, t).value());
    EXPECT_EQ(exec.CohortMeanSpellLength(e, t).value(),
              query::MeanSpellLength(panel, t).value());
  }
}

}  // namespace
}  // namespace archive
}  // namespace longdp
