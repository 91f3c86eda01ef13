// Fixture-based and inline tests for the longdp-lint analyzer. The fixture
// files under tests/lint_fixtures are data (never compiled); each documents
// the findings it must produce. Inline ScanSource cases pin the
// statement-context analysis of longdp-status-checked and the exemption /
// suppression machinery.

#include "lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace longdp {
namespace lint {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(LONGDP_LINT_FIXTURE_DIR) + "/" + name;
}

std::vector<Finding> ScanFixture(const std::string& name,
                                 const Options& options = {}) {
  auto result = ScanPaths({FixturePath(name)}, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result.value() : std::vector<Finding>{};
}

std::vector<std::string> RulesOf(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const Finding& f : findings) rules.push_back(f.rule);
  return rules;
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  std::vector<std::string> rules = RulesOf(findings);
  return static_cast<int>(std::count(rules.begin(), rules.end(), rule));
}

// ---------------------------------------------------------------------------
// Fixture files
// ---------------------------------------------------------------------------

TEST(LintFixtureTest, PassFixturesAreClean) {
  for (const char* name :
       {"pass_clean.cc", "pass_unordered_lookup.cc", "pass_status_checked.cc",
        "pass_nolint_justified.cc", "pass_substream_discipline.cc",
        "pass_simd_nolint_justified.cc"}) {
    std::vector<Finding> findings = ScanFixture(name);
    EXPECT_TRUE(findings.empty())
        << name << ": " << (findings.empty() ? "" : findings[0].ToString());
  }
}

TEST(LintFixtureTest, RawRngFixtureCatchesEveryPrimitive) {
  std::vector<Finding> findings = ScanFixture("fail_raw_rng.cc");
  ASSERT_EQ(findings.size(), 5u);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "longdp-no-raw-rng") << f.ToString();
  }
  // mt19937 + random_device on one line, srand + time(nullptr) on the next,
  // std::rand on the return.
  std::vector<int> lines;
  for (const Finding& f : findings) lines.push_back(f.line);
  EXPECT_EQ(lines, (std::vector<int>{8, 8, 9, 9, 10}));
}

TEST(LintFixtureTest, UnorderedIterationFixture) {
  std::vector<Finding> findings = ScanFixture("fail_unordered_iteration.cc");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(CountRule(findings, "longdp-no-unordered-iteration"), 2);
}

TEST(LintFixtureTest, NoiseOutsideDpFixture) {
  std::vector<Finding> findings = ScanFixture("fail_noise_outside_dp.cc");
  EXPECT_EQ(CountRule(findings, "longdp-noise-via-dp"), 2);
  // The std::mt19937 parameter also trips the raw-RNG rule.
  EXPECT_EQ(CountRule(findings, "longdp-no-raw-rng"), 1);
  EXPECT_EQ(findings.size(), 3u);
}

TEST(LintFixtureTest, StatusDiscardFixture) {
  std::vector<Finding> findings = ScanFixture("fail_status_discarded.cc");
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(CountRule(findings, "longdp-status-checked"), 3);
}

TEST(LintFixtureTest, SubstreamDisciplineFixtureFlagsEveryConstruction) {
  std::vector<Finding> findings = ScanFixture("fail_substream_discipline.cc");
  ASSERT_EQ(findings.size(), 3u);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "longdp-substream-discipline") << f.ToString();
  }
  std::vector<int> lines;
  for (const Finding& f : findings) lines.push_back(f.line);
  EXPECT_EQ(lines, (std::vector<int>{9, 10, 11}));
}

TEST(LintFixtureTest, SimdContainedFixtureFlagsHeaderAndIntrinsics) {
  std::vector<Finding> findings = ScanFixture("fail_simd_outside_util.cc");
  ASSERT_EQ(findings.size(), 4u);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "longdp-simd-contained") << f.ToString();
  }
  // Header include, __m256i + _mm256_set1_epi64x, _mm256_extract_epi64.
  std::vector<int> lines;
  for (const Finding& f : findings) lines.push_back(f.line);
  EXPECT_EQ(lines, (std::vector<int>{4, 9, 9, 10}));
}

TEST(LintFixtureTest, MissingJustificationKeepsFindingAndAddsMetaFinding) {
  std::vector<Finding> findings =
      ScanFixture("fail_nolint_missing_justification.cc");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(CountRule(findings, "longdp-no-unordered-iteration"), 1);
  EXPECT_EQ(CountRule(findings, "longdp-nolint-needs-justification"), 1);
}

TEST(LintFixtureTest, SuppressionNamingWrongRuleDoesNotApply) {
  std::vector<Finding> findings = ScanFixture("fail_nolint_wrong_rule.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "longdp-no-unordered-iteration");
}

TEST(LintFixtureTest, BlanketAndForeignRuleSuppressionsAreFlagged) {
  std::vector<Finding> findings = ScanFixture("fail_nolint_blanket.cc");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(CountRule(findings, "longdp-nolint-needs-justification"), 2);
  // The blanket NOLINT rides on the atoi line; the unjustified clang-tidy
  // suppression is the NOLINTNEXTLINE comment itself.
  std::vector<int> lines{findings[0].line, findings[1].line};
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(lines, (std::vector<int>{8, 9}));
}

TEST(LintFixtureTest, DirectoryScanVisitsAllFixtures) {
  auto result = ScanPaths({std::string(LONGDP_LINT_FIXTURE_DIR)}, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // 5 raw-rng + 2 unordered + (2 noise + 1 raw-rng) + 3 status +
  // (1 unordered + 1 meta) + 1 unordered + 2 nolint-policy +
  // 3 substream + 4 simd = 25; pass_* files contribute none.
  EXPECT_EQ(result.value().size(), 25u);
  for (const Finding& f : result.value()) {
    EXPECT_EQ(f.path.find("pass_"), std::string::npos) << f.ToString();
  }
}

TEST(LintFixtureTest, ExcludeSkipsFiles) {
  Options options;
  options.excludes = {"fail_"};
  auto result = ScanPaths({std::string(LONGDP_LINT_FIXTURE_DIR)}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

TEST(LintFixtureTest, RulesFilterRestrictsFindings) {
  Options options;
  options.rules = {"longdp-noise-via-dp"};
  std::vector<Finding> findings =
      ScanFixture("fail_noise_outside_dp.cc", options);
  EXPECT_EQ(findings.size(), 2u);
  EXPECT_EQ(CountRule(findings, "longdp-noise-via-dp"), 2);
}

TEST(LintFixtureTest, AllowExemptsOneRuleByPath) {
  Options options;
  options.allow = {{"longdp-no-unordered-iteration", "lint_fixtures"}};
  std::vector<Finding> findings =
      ScanFixture("fail_unordered_iteration.cc", options);
  EXPECT_TRUE(findings.empty());
}

TEST(LintFixtureTest, MissingPathIsIOError) {
  auto result = ScanPaths({"/nonexistent/lint/path"}, {});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
}

// ---------------------------------------------------------------------------
// Inline sources: statement-context analysis and exemptions
// ---------------------------------------------------------------------------

TEST(LintScanSourceTest, ConsumedStatusCallsAreNotFlagged) {
  const std::string src = R"cc(
    Status Save(int id);
    Status Caller() {
      Status st = Save(1);
      if (!st.ok()) return st;
      if (Save(2).ok()) { }
      LONGDP_RETURN_NOT_OK(Save(3));
      return Save(4);
    }
  )cc";
  EXPECT_TRUE(ScanSource("a.cc", src, {}).empty());
}

TEST(LintScanSourceTest, DiscardContextsAreFlagged) {
  const std::string src = R"cc(
    Status Save(int id);
    void Caller(bool b) {
      Save(1);
      if (b) Save(2);
      else Save(3);
      (void)Save(4);
    }
  )cc";
  std::vector<Finding> findings = ScanSource("a.cc", src, {});
  EXPECT_EQ(findings.size(), 4u);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "longdp-status-checked");
  }
}

TEST(LintScanSourceTest, MethodChainOnTemporaryIsFlagged) {
  const std::string src = R"cc(
    struct Bank { Status SaveState(int out); };
    Bank MakeBank();
    void Caller() {
      MakeBank().SaveState(1);
    }
  )cc";
  std::vector<Finding> findings = ScanSource("a.cc", src, {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "longdp-status-checked");
}

TEST(LintScanSourceTest, CrossFileStatusDeclarationsAreResolved) {
  // Save is declared in the header and discarded in the .cc: the project
  // pass must connect them.
  const std::string dir = ::testing::TempDir() + "/lint_crossfile";
  std::filesystem::create_directories(dir);
  {
    std::ofstream h(dir + "/api.h");
    h << "Status Save(int id);\n";
    std::ofstream cc(dir + "/use.cc");
    cc << "#include \"api.h\"\nvoid F() { Save(1); }\n";
  }
  auto result = ScanPaths({dir}, {});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), 1u);
  EXPECT_EQ(result.value()[0].rule, "longdp-status-checked");
  EXPECT_NE(result.value()[0].path.find("use.cc"), std::string::npos);
}

TEST(LintScanSourceTest, BuiltinExemptionsApply) {
  EXPECT_TRUE(ScanSource("src/util/substream.cc",
                         "auto s = SubstreamRng::FromState(k, 0);", {})
                  .empty());
  EXPECT_TRUE(ScanSource("src/dp/mechanisms.cc",
                         "std::normal_distribution<double> d(0.0, 1.0);", {})
                  .empty());
  // The same content elsewhere is a finding.
  EXPECT_EQ(ScanSource("src/core/x.cc",
                       "auto s = SubstreamRng::FromState(k, 0);", {})
                .size(),
            1u);
  EXPECT_EQ(ScanSource("src/core/x.cc",
                       "std::normal_distribution<double> d(0.0, 1.0);", {})
                .size(),
            1u);
  // No file is exempt from the raw-RNG rule, the engine's own included.
  EXPECT_EQ(
      ScanSource("src/util/substream.cc", "std::mt19937 gen;", {}).size(),
      1u);
  EXPECT_EQ(ScanSource("src/core/x.cc", "std::mt19937 gen;", {}).size(), 1u);
}

TEST(LintScanSourceTest, SubstreamDisciplineContexts) {
  // A purpose-less root in the library is flagged, named or temporary.
  EXPECT_EQ(
      ScanSource("src/core/x.cc", "util::SubstreamRng rng(1);", {}).size(),
      1u);
  EXPECT_EQ(
      ScanSource("src/core/x.cc", "util::SubstreamRng rng{seed};", {}).size(),
      1u);
  EXPECT_EQ(ScanSource("src/core/x.cc",
                       "util::SubstreamRng rng(Mix(seed, 3));", {})
                .size(),
            1u);
  EXPECT_EQ(ScanSource("src/core/x.cc",
                       "auto v = util::SubstreamRng(1).Next();", {})
                .size(),
            1u);
  // FromState is flagged everywhere, tests included.
  EXPECT_EQ(ScanSource("tests/x.cc",
                       "auto s = util::SubstreamRng::FromState(k, 0);", {})
                .size(),
            1u);
  // Consuming an engine through a pointer/reference, naming the type in a
  // template argument, constructing a keyed substream, copying a derived
  // one, or declaring a function that returns one is fine.
  EXPECT_TRUE(ScanSource("src/core/x.cc",
                         "void F(util::SubstreamRng* r, SubstreamRng& s);", {})
                  .empty());
  EXPECT_TRUE(ScanSource("src/core/x.cc",
                         "std::unique_ptr<util::SubstreamRng> p;", {})
                  .empty());
  EXPECT_TRUE(ScanSource("src/core/x.cc",
                         "util::SubstreamRng s(1, util::substream::kGeneric);",
                         {})
                  .empty());
  EXPECT_TRUE(ScanSource("src/core/x.cc",
                         "util::SubstreamRng leaf = parent.Leaf(3);", {})
                  .empty());
  EXPECT_TRUE(ScanSource("src/core/x.h",
                         "util::SubstreamRng Stream(int64_t round) const;", {})
                  .empty());
  // Seed-only roots outside the library (benches, tests, examples) are
  // fine, judged by the innermost tree even under an outer src/ directory.
  EXPECT_TRUE(
      ScanSource("bench/x.cc", "util::SubstreamRng rng(1);", {}).empty());
  EXPECT_TRUE(ScanSource("/home/u/src/longdp/bench/x.cc",
                         "util::SubstreamRng rng(1);", {})
                  .empty());
  EXPECT_EQ(ScanSource("/home/u/src/longdp/src/core/x.cc",
                       "util::SubstreamRng rng(1);", {})
                .size(),
            1u);
  // The substream sources may mint engines.
  EXPECT_TRUE(ScanSource("src/util/substream.cc",
                         "SubstreamRng SubstreamRng::FromState(uint64_t k) {",
                         {})
                  .empty());
  EXPECT_TRUE(ScanSource("src/util/substream.cc",
                         "SubstreamRng root(seed);", {})
                  .empty());
}

TEST(LintScanSourceTest, SimdContainedExemptsOnlyTheSimdLayer) {
  const std::string src = "__m256i v = _mm256_add_epi64(a, b);";
  EXPECT_TRUE(ScanSource("src/util/simd/simd_avx2.cc", src, {}).empty());
  EXPECT_EQ(ScanSource("src/core/x.cc", src, {}).size(), 2u);
  // The intrinsic umbrella header is flagged wherever it is included.
  EXPECT_EQ(
      ScanSource("src/stream/y.cc", "#include <immintrin.h>\n", {}).size(),
      1u);
}

TEST(LintScanSourceTest, CommentsAndStringsDoNotTrigger) {
  const std::string src = R"cc(
    // std::mt19937 in a comment is fine
    /* so is normal_distribution here */
    const char* kDoc = "uses std::random_device and rand()";
  )cc";
  EXPECT_TRUE(ScanSource("a.cc", src, {}).empty());
}

TEST(LintScanSourceTest, UnorderedAliasAndMemberIterationCaught) {
  const std::string src = R"cc(
    using WeightIndex = std::unordered_map<int, double>;
    struct S {
      WeightIndex weights_;
      double Sum() const {
        double total = 0.0;
        for (const auto& [k, v] : weights_) total += v;
        return total;
      }
    };
  )cc";
  std::vector<Finding> findings = ScanSource("a.cc", src, {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "longdp-no-unordered-iteration");
}

TEST(LintScanSourceTest, TimeSeedingOnlyFlagsArglessForms) {
  EXPECT_EQ(ScanSource("a.cc", "long t = time(nullptr);", {}).size(), 1u);
  EXPECT_EQ(ScanSource("a.cc", "long t = std::time(0);", {}).size(), 1u);
  // steady_clock timing is the bench harness's job, not entropy.
  EXPECT_TRUE(
      ScanSource("a.cc", "auto t0 = std::chrono::steady_clock::now();", {})
          .empty());
  // A time(explicit_ptr) call reads a clock into a variable; not seeding.
  EXPECT_TRUE(ScanSource("a.cc", "time_t v; time(&v);", {}).empty());
}

TEST(LintScanSourceTest, NolintPolicyCoversForeignRulesButNotProse) {
  // Unjustified suppression of a clang-tidy rule: flagged even though the
  // rule never collides with a longdp-* finding.
  EXPECT_EQ(
      ScanSource("a.cc", "// NOLINTNEXTLINE(bugprone-foo)\nint x = 1;\n", {})
          .size(),
      1u);
  // Justified foreign-rule suppression: clean.
  EXPECT_TRUE(
      ScanSource("a.cc",
                 "// NOLINTNEXTLINE(bugprone-foo): init order is fixed\n"
                 "int x = 1;\n",
                 {})
          .empty());
  // Blanket, even with a reason after a colon: must name the rule.
  EXPECT_EQ(
      ScanSource("a.cc", "int y = 2;  // NOLINT: trust me\n", {}).size(),
      1u);
  // Prose mentioning NOLINT mid-sentence is not a directive.
  EXPECT_TRUE(
      ScanSource("a.cc", "// how NOLINT markers work\n", {}).empty());
}

TEST(LintScanSourceTest, FindingToStringIsClangShaped) {
  std::vector<Finding> findings =
      ScanSource("src/x.cc", "std::mt19937 gen;", {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].ToString().find("src/x.cc:1: warning: "), 0u);
  EXPECT_NE(findings[0].ToString().find("[longdp-no-raw-rng]"),
            std::string::npos);
}

}  // namespace
}  // namespace lint
}  // namespace longdp
