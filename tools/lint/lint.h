// longdp-lint: a token-level static analyzer for project invariants.
//
// The library scans C++ sources and enforces the determinism / privacy
// invariants that the runtime suites (goldens, statistical acceptance, TSan)
// can only catch after the fact:
//
//   longdp-no-raw-rng            No std::rand/srand, std::random_device,
//                                std::mt19937-family engines, or argless
//                                time()/clock() seeding, anywhere. Every
//                                draw must flow through util::SubstreamRng
//                                so releases replay bit-identically.
//   longdp-no-unordered-iteration
//                                No range-for or begin()/cbegin() iteration
//                                over std::unordered_{map,set} variables.
//                                Iteration order is stdlib-dependent and
//                                poisons cross-platform determinism the
//                                moment it feeds a release log or CSV.
//   longdp-noise-via-dp          No direct std::normal_distribution /
//                                std::geometric_distribution outside
//                                src/dp/ — privacy noise must come from a
//                                dp:: mechanism charged to the accountant.
//   longdp-status-checked        A statement that calls a Status-returning
//                                function and discards the result. Backs up
//                                the [[nodiscard]] attribute at lint time
//                                (and, unlike the compiler, refuses the
//                                (void)-cast escape hatch).
//   longdp-substream-discipline  Outside src/util/substream.*: no
//                                SubstreamRng::FromState (an engine minted
//                                from a raw key and cursor) anywhere, and
//                                under src/ no root SubstreamRng built from
//                                a seed alone (the implicit kGeneric
//                                purpose). Noise and sampling must come
//                                from keyed substreams so every draw has a
//                                (seed, purpose, shard, round, draw)
//                                address and releases are
//                                shard-count-invariant. Consuming an engine
//                                via `SubstreamRng*` / `SubstreamRng&`
//                                stays legal.
//   longdp-simd-contained        No raw vendor intrinsics (_mm*/__m*
//                                identifiers, *intrin.h headers, arm_neon)
//                                outside src/util/simd/. Hot loops must call
//                                the runtime-dispatched kernels in
//                                util/simd/simd.h, which keep a bit-identical
//                                scalar fallback (LONGDP_FORCE_SCALAR) so
//                                goldens never depend on the host ISA.
//
// Suppressions follow the clang-tidy spelling but are stricter: a
// `// NOLINTNEXTLINE(longdp-<rule>)` (or trailing `// NOLINT(longdp-<rule>)`)
// must name the rule AND carry a trailing justification after the closing
// paren, e.g.
//
//   // NOLINTNEXTLINE(longdp-no-unordered-iteration): order folded by sum
//
// A suppression without a justification does not suppress and additionally
// raises longdp-nolint-needs-justification. The justification policy covers
// EVERY suppression in the tree, not just longdp-* rules: an unjustified
// `// NOLINT(<clang-tidy-rule>)` and a blanket `// NOLINT` with no rule
// list are both flagged, so the clang-tidy wall in CI cannot be waved
// through silently.

#ifndef LONGDP_TOOLS_LINT_LINT_H_
#define LONGDP_TOOLS_LINT_LINT_H_

#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace longdp {
namespace lint {

/// One diagnostic. `line` is 1-based.
struct Finding {
  std::string path;
  int line = 0;
  std::string rule;
  std::string message;

  /// "path:line: warning: message [rule]" — the clang-diagnostic shape
  /// editors and CI annotations already know how to parse.
  std::string ToString() const;
};

struct Options {
  /// Rules to run; empty means all. longdp-nolint-needs-justification is a
  /// meta rule and always active.
  std::vector<std::string> rules;

  /// Files whose forward-slash path contains any of these substrings are
  /// skipped entirely (e.g. "tests/lint_fixtures").
  std::vector<std::string> excludes;

  /// Extra per-rule allowlist entries: a file whose path contains `.second`
  /// is exempt from rule `.first`. Built-in exemptions (src/dp/ for
  /// longdp-noise-via-dp, src/util/substream.* for
  /// longdp-substream-discipline, src/util/simd/ for longdp-simd-contained)
  /// are always active.
  std::vector<std::pair<std::string, std::string>> allow;
};

/// Names of the six source rules (not including the NOLINT meta rule).
const std::vector<std::string>& RuleNames();
bool IsKnownRule(const std::string& rule);

/// Scans one in-memory file. The project context (Status-returning function
/// names, unordered-container variable names) is derived from this file
/// alone — the entry point unit tests and fixtures use.
std::vector<Finding> ScanSource(const std::string& path,
                                const std::string& content,
                                const Options& options);

/// Scans files and directories (recursively; *.h *.hh *.hpp *.cc *.cpp
/// *.cxx). Runs a first pass over every file to collect project-wide
/// declarations, then applies the rules, so a Status-returning function
/// declared in a header is recognized at call sites in other files.
/// Findings come back sorted by path, line, rule. Fails with IOError when a
/// path does not exist or a file cannot be read.
Result<std::vector<Finding>> ScanPaths(const std::vector<std::string>& paths,
                                       const Options& options);

}  // namespace lint
}  // namespace longdp

#endif  // LONGDP_TOOLS_LINT_LINT_H_
