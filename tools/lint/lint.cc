#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace longdp {
namespace lint {
namespace {

// ---------------------------------------------------------------------------
// Rule names
// ---------------------------------------------------------------------------

constexpr char kRuleRawRng[] = "longdp-no-raw-rng";
constexpr char kRuleUnorderedIter[] = "longdp-no-unordered-iteration";
constexpr char kRuleNoiseViaDp[] = "longdp-noise-via-dp";
constexpr char kRuleStatusChecked[] = "longdp-status-checked";
constexpr char kRuleSubstream[] = "longdp-substream-discipline";
constexpr char kRuleSimdContained[] = "longdp-simd-contained";
constexpr char kRuleNolintJustify[] = "longdp-nolint-needs-justification";

// ---------------------------------------------------------------------------
// Lexer: identifiers / numbers / punctuation with line numbers, comments
// collected on the side. Strings and char literals are consumed (their
// contents must not trigger rules); `::` and `->` are fused so qualifier
// chains are easy to walk.
// ---------------------------------------------------------------------------

struct Token {
  enum Kind { kIdent, kNumber, kPunct } kind = kPunct;
  std::string text;
  int line = 0;
};

struct Comment {
  int line = 0;  // line the comment ends on (== starts on, for // comments)
  std::string text;
};

struct LexedFile {
  std::string path;          // forward-slash form, for exemption matching
  std::vector<Token> tokens;
  std::vector<Comment> comments;
};

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

LexedFile Lex(const std::string& path, const std::string& src) {
  LexedFile out;
  out.path = path;
  int line = 1;
  const size_t n = src.size();
  size_t i = 0;
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      size_t end = src.find('\n', i);
      if (end == std::string::npos) end = n;
      out.comments.push_back({line, src.substr(i + 2, end - i - 2)});
      i = end;
      continue;
    }
    // Block comment; recorded at its *end* line so NOLINTNEXTLINE semantics
    // ("the marker sits on the line above the code") hold for both styles.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      size_t j = i + 2;
      std::string text;
      while (j + 1 < n && !(src[j] == '*' && src[j + 1] == '/')) {
        if (src[j] == '\n') ++line;
        text.push_back(src[j]);
        ++j;
      }
      out.comments.push_back({line, text});
      i = (j + 1 < n) ? j + 2 : n;
      continue;
    }
    // Raw string literal (possibly preceded by an encoding prefix handled
    // via the identifier path below falling through — we only special-case
    // the common R"( form).
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      size_t j = i + 2;
      std::string delim;
      while (j < n && src[j] != '(') delim.push_back(src[j++]);
      const std::string closer = ")" + delim + "\"";
      size_t end = src.find(closer, j);
      if (end == std::string::npos) end = n;
      for (size_t k = i; k < std::min(end, n); ++k) {
        if (src[k] == '\n') ++line;
      }
      i = std::min(n, end + closer.size());
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      size_t j = i + 1;
      while (j < n && src[j] != quote) {
        if (src[j] == '\\' && j + 1 < n) ++j;
        if (src[j] == '\n') ++line;  // unterminated; keep line count honest
        ++j;
      }
      i = (j < n) ? j + 1 : n;
      continue;
    }
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(src[j])) ++j;
      out.tokens.push_back({Token::kIdent, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      while (j < n && (IsIdentChar(src[j]) || src[j] == '.' ||
                       src[j] == '\'')) {
        ++j;
      }
      out.tokens.push_back({Token::kNumber, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Punctuation; fuse :: and -> for qualifier-chain walking.
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      out.tokens.push_back({Token::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      out.tokens.push_back({Token::kPunct, "->", line});
      i += 2;
      continue;
    }
    out.tokens.push_back({Token::kPunct, std::string(1, c), line});
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Pass 1: project-wide declaration context
// ---------------------------------------------------------------------------

struct ProjectContext {
  // Function names declared with return type Status (any qualification).
  std::set<std::string> status_fns;
  // Variable / member names declared with an unordered container type.
  std::set<std::string> unordered_vars;
  // Type names that denote unordered containers (the two std names plus
  // `using X = std::unordered_map<...>` aliases found in pass 1).
  std::set<std::string> unordered_types = {"unordered_map", "unordered_set",
                                           "unordered_multimap",
                                           "unordered_multiset"};
};

bool TokIs(const std::vector<Token>& t, size_t i, const char* text) {
  return i < t.size() && t[i].text == text;
}
bool TokIsIdent(const std::vector<Token>& t, size_t i) {
  return i < t.size() && t[i].kind == Token::kIdent;
}

// Returns the index just past the matching closer, treating `<` at t[i] as
// an opener. Gives up (returns i + 1) on suspicious nesting so expression
// uses of `<` cannot send the scan off a cliff.
size_t SkipAngles(const std::vector<Token>& t, size_t i) {
  int depth = 0;
  size_t j = i;
  const size_t limit = std::min(t.size(), i + 400);
  for (; j < limit; ++j) {
    if (t[j].text == "<") ++depth;
    if (t[j].text == ">") {
      --depth;
      if (depth == 0) return j + 1;
    }
    if (t[j].text == ";") break;  // a declaration never crosses one
  }
  return i + 1;
}

// Returns the index just past the `)` matching the `(` at t[i].
size_t SkipParens(const std::vector<Token>& t, size_t i) {
  int depth = 0;
  for (size_t j = i; j < t.size(); ++j) {
    if (t[j].text == "(") ++depth;
    if (t[j].text == ")") {
      --depth;
      if (depth == 0) return j + 1;
    }
  }
  return t.size();
}

void CollectDeclarations(const LexedFile& file, ProjectContext* ctx) {
  const std::vector<Token>& t = file.tokens;
  // `using X = ... unordered_map ... ;` registers alias X.
  for (size_t i = 0; i + 3 < t.size(); ++i) {
    if (!(TokIs(t, i, "using") && TokIsIdent(t, i + 1) &&
          TokIs(t, i + 2, "="))) {
      continue;
    }
    for (size_t j = i + 3; j < t.size() && !TokIs(t, j, ";"); ++j) {
      if (t[j].kind == Token::kIdent &&
          ctx->unordered_types.count(t[j].text)) {
        ctx->unordered_types.insert(t[i + 1].text);
        break;
      }
    }
  }
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::kIdent) continue;
    // `Status Name(` → Name returns Status. (A direct-initialized local
    // `Status st(...)` is also collected; a bare statement `st(...)` does
    // not occur in practice, so the over-approximation is harmless.)
    if (t[i].text == "Status" && TokIsIdent(t, i + 1) &&
        TokIs(t, i + 2, "(")) {
      ctx->status_fns.insert(t[i + 1].text);
      continue;
    }
    // `unordered_map<...> name` (or an alias) → name holds an unordered
    // container. `unordered_map<...>::iterator` and friends are skipped.
    if (ctx->unordered_types.count(t[i].text)) {
      size_t j = i + 1;
      if (TokIs(t, j, "<")) j = SkipAngles(t, j);
      while (TokIs(t, j, "&") || TokIs(t, j, "*") || TokIs(t, j, "const")) {
        ++j;
      }
      if (TokIsIdent(t, j) && !TokIs(t, j - 1, "::")) {
        ctx->unordered_vars.insert(t[j].text);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pass 2: rules
// ---------------------------------------------------------------------------

bool PathContains(const std::string& path, const std::string& sub) {
  return path.find(sub) != std::string::npos;
}

bool RuleExempt(const std::string& rule, const std::string& path,
                const Options& options) {
  if (rule == kRuleRawRng &&
      (PathContains(path, "src/util/rng.h") ||
       PathContains(path, "src/util/rng.cc"))) {
    return true;
  }
  if (rule == kRuleNoiseViaDp && PathContains(path, "src/dp/")) return true;
  if (rule == kRuleSubstream &&
      (PathContains(path, "src/util/rng.h") ||
       PathContains(path, "src/util/rng.cc") ||
       PathContains(path, "src/util/substream"))) {
    return true;
  }
  if (rule == kRuleSimdContained && PathContains(path, "src/util/simd")) {
    return true;
  }
  for (const auto& [r, sub] : options.allow) {
    if (r == rule && PathContains(path, sub)) return true;
  }
  return false;
}

bool RuleEnabled(const std::string& rule, const Options& options) {
  if (options.rules.empty()) return true;
  return std::find(options.rules.begin(), options.rules.end(), rule) !=
         options.rules.end();
}

void CheckRawRng(const LexedFile& file, std::vector<Finding>* findings) {
  static const std::set<std::string> kEngines = {
      "random_device", "mt19937",      "mt19937_64",
      "minstd_rand",   "minstd_rand0", "default_random_engine",
      "ranlux24",      "ranlux48",     "knuth_b"};
  const std::vector<Token>& t = file.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::kIdent) continue;
    const std::string& s = t[i].text;
    if (kEngines.count(s)) {
      findings->push_back(
          {file.path, t[i].line, kRuleRawRng,
           "raw RNG '" + s + "'; draw through util::Rng instead"});
      continue;
    }
    if (s == "srand" || (s == "rand" && i >= 2 && TokIs(t, i - 1, "::") &&
                         TokIs(t, i - 2, "std"))) {
      findings->push_back({file.path, t[i].line, kRuleRawRng,
                           "C library RNG '" + s +
                               "'; draw through util::Rng instead"});
      continue;
    }
    if (s == "time" && TokIs(t, i + 1, "(") &&
        (TokIs(t, i + 2, "nullptr") || TokIs(t, i + 2, "NULL") ||
         TokIs(t, i + 2, "0")) &&
        TokIs(t, i + 3, ")")) {
      findings->push_back({file.path, t[i].line, kRuleRawRng,
                           "wall-clock seeding 'time(...)'; seeds must be "
                           "explicit and reproducible"});
      continue;
    }
    // `clock()` — the classic srand(clock()) seeding idiom. Qualified
    // `steady_clock::now()` etc. are NOT flagged: <chrono> timing is how
    // the bench harness measures phases and carries no RNG state.
    if (s == "clock" && TokIs(t, i + 1, "(") && TokIs(t, i + 2, ")")) {
      findings->push_back({file.path, t[i].line, kRuleRawRng,
                           "wall-clock seeding 'clock()'; seeds must be "
                           "explicit and reproducible"});
    }
  }
}

void CheckNoiseViaDp(const LexedFile& file, std::vector<Finding>* findings) {
  static const std::set<std::string> kDists = {"normal_distribution",
                                               "geometric_distribution"};
  for (const Token& tok : file.tokens) {
    if (tok.kind == Token::kIdent && kDists.count(tok.text)) {
      findings->push_back(
          {file.path, tok.line, kRuleNoiseViaDp,
           "'" + tok.text +
               "' outside src/dp/; privacy noise must come from a dp:: "
               "mechanism charged to the accountant"});
    }
  }
}

void CheckSimdContained(const LexedFile& file,
                        std::vector<Finding>* findings) {
  // Vendor intrinsic surface: _mm*/__m* identifiers and the *intrin.h
  // family of headers (immintrin, x86intrin, emmintrin, ...). The include
  // line lexes to plain tokens, so the header name is just an identifier.
  static const std::vector<std::string> kPrefixes = {
      "_mm_",   "_mm256_", "_mm512_", "__m128",
      "__m256", "__m512",  "__mmask"};
  for (const Token& tok : file.tokens) {
    if (tok.kind != Token::kIdent) continue;
    const std::string& s = tok.text;
    bool hit = false;
    for (const std::string& p : kPrefixes) {
      if (s.compare(0, p.size(), p) == 0) {
        hit = true;
        break;
      }
    }
    if (!hit && s.size() >= 6 &&
        s.compare(s.size() - 6, 6, "intrin") == 0) {
      hit = true;  // immintrin / x86intrin / emmintrin / ... header names
    }
    if (!hit && s == "arm_neon") hit = true;
    if (hit) {
      findings->push_back(
          {file.path, tok.line, kRuleSimdContained,
           "raw SIMD '" + s +
               "' outside src/util/simd/; call the runtime-dispatched "
               "kernels in util/simd/simd.h so the forced-scalar build "
               "stays bit-identical"});
    }
  }
}

void CheckUnorderedIteration(const LexedFile& file,
                             const ProjectContext& ctx,
                             std::vector<Finding>* findings) {
  const std::vector<Token>& t = file.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    // Range-for whose range expression mentions an unordered variable or
    // constructs an unordered container inline.
    if (TokIs(t, i, "for") && TokIs(t, i + 1, "(")) {
      const size_t close = SkipParens(t, i + 1);
      int depth = 0;
      size_t colon = 0;
      for (size_t j = i + 1; j + 1 < close; ++j) {
        if (t[j].text == "(" || t[j].text == "[") ++depth;
        if (t[j].text == ")" || t[j].text == "]") --depth;
        if (depth == 1 && t[j].text == ":" && j > i + 1) {
          colon = j;
          break;
        }
      }
      if (colon == 0) continue;
      for (size_t j = colon + 1; j + 1 < close; ++j) {
        if (t[j].kind == Token::kIdent &&
            (ctx.unordered_vars.count(t[j].text) ||
             ctx.unordered_types.count(t[j].text))) {
          findings->push_back(
              {file.path, t[i].line, kRuleUnorderedIter,
               "range-for over unordered container '" + t[j].text +
                   "'; iteration order is stdlib-dependent and breaks "
                   "bit-reproducibility"});
          break;
        }
      }
      continue;
    }
    // Iterator harvesting: var.begin() / var->cbegin() / std::begin(var).
    if (t[i].kind == Token::kIdent && ctx.unordered_vars.count(t[i].text)) {
      if ((TokIs(t, i + 1, ".") || TokIs(t, i + 1, "->")) &&
          (TokIs(t, i + 2, "begin") || TokIs(t, i + 2, "cbegin") ||
           TokIs(t, i + 2, "rbegin")) &&
          TokIs(t, i + 3, "(")) {
        findings->push_back(
            {file.path, t[i].line, kRuleUnorderedIter,
             "iterator over unordered container '" + t[i].text +
                 "'; iteration order is stdlib-dependent and breaks "
                 "bit-reproducibility"});
      }
      if (i >= 2 && TokIs(t, i - 1, "(") &&
          (TokIs(t, i - 2, "begin") || TokIs(t, i - 2, "cbegin")) &&
          TokIs(t, i + 1, ")")) {
        findings->push_back(
            {file.path, t[i].line, kRuleUnorderedIter,
             "iterator over unordered container '" + t[i].text +
                 "'; iteration order is stdlib-dependent and breaks "
                 "bit-reproducibility"});
      }
    }
  }
}

// Direct construction of a util::Rng engine outside the engine /
// substream sources: `Rng name(...)`, `Rng name{...}`, `Rng name;` and
// temporaries `Rng(...)`. Pointer / reference parameters (`Rng*`, `Rng&`),
// qualifications (`Rng::`), template arguments (`<Rng>`), and
// `class Rng` / `~Rng` declarations stay legal — code may *consume* an
// engine handed to it, but only the substream factory may mint one, so
// every draw keeps a (seed, purpose, shard, round, draw) address.
// SubstreamRng lexes as a distinct identifier and is never flagged.
void CheckSubstreamDiscipline(const LexedFile& file,
                              std::vector<Finding>* findings) {
  const std::vector<Token>& t = file.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::kIdent || t[i].text != "Rng") continue;
    if (i > 0) {
      const std::string& prev = t[i - 1].text;
      if (prev == "class" || prev == "struct" || prev == "friend" ||
          prev == "~" || prev == "enum") {
        continue;
      }
    }
    const bool decl = TokIsIdent(t, i + 1);           // Rng name...
    const bool temp = TokIs(t, i + 1, "(");           // Rng(...)
    if (!decl && !temp) continue;
    // `Rng name(` where name is immediately called could also be a
    // function declaration returning Rng — equally a discipline breach
    // outside the engine sources: only the exempt substream factory hands
    // out engines by value.
    findings->push_back(
        {file.path, t[i].line, kRuleSubstream,
         "direct construction of util::Rng; derive a keyed "
         "util::SubstreamRng (seed, purpose) instead so draws stay "
         "addressable and shard-invariant"});
  }
}

// Walks a qualifier/member chain leftward from the token *before* the call
// name: `a.b::c->Name(` → index of `a`. Crosses one level of balanced
// parens so `MakeThing().Save(` resolves to the chain head.
size_t ChainStart(const std::vector<Token>& t, size_t name_idx) {
  size_t j = name_idx;
  while (j >= 2) {
    const std::string& sep = t[j - 1].text;
    if (sep != "." && sep != "->" && sep != "::") break;
    if (t[j - 2].kind == Token::kIdent) {
      j -= 2;
      continue;
    }
    if (t[j - 2].text == ")") {
      // Find the matching open paren, then the identifier before it.
      int depth = 0;
      size_t k = j - 2;
      while (true) {
        if (t[k].text == ")") ++depth;
        if (t[k].text == "(") {
          --depth;
          if (depth == 0) break;
        }
        if (k == 0) return j;
        --k;
      }
      if (k >= 1 && t[k - 1].kind == Token::kIdent) {
        j = k - 1;
        continue;
      }
      return j;
    }
    break;
  }
  return j;
}

void CheckStatusDiscarded(const LexedFile& file, const ProjectContext& ctx,
                          std::vector<Finding>* findings) {
  const std::vector<Token>& t = file.tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::kIdent || !TokIs(t, i + 1, "(")) continue;
    if (!ctx.status_fns.count(t[i].text)) continue;
    const size_t start = ChainStart(t, i);
    // Only statement-initial calls are discards; anything consumed by an
    // operator, initializer, return, or macro argument has a non-";{}"
    // token in front of its chain.
    bool statement_initial = false;
    if (start == 0) {
      statement_initial = true;
    } else {
      const std::string& prev = t[start - 1].text;
      statement_initial = prev == ";" || prev == "{" || prev == "}" ||
                          prev == "else" || prev == ")";
      // `)` covers `if (...) Save(x);` and the (void)-cast escape hatch —
      // both are policy violations — but also matches harmless non-call
      // contexts; require the call result to hit `;` below either way.
    }
    if (!statement_initial) continue;
    const size_t after = SkipParens(t, i + 1);
    if (!TokIs(t, after, ";")) continue;  // chained / consumed result
    findings->push_back(
        {file.path, t[i].line, kRuleStatusChecked,
         "result of Status-returning call '" + t[i].text +
             "(...)' is discarded; check it or propagate with "
             "LONGDP_RETURN_NOT_OK"});
  }
}

// ---------------------------------------------------------------------------
// NOLINT suppression with mandatory justification
// ---------------------------------------------------------------------------

struct Suppression {
  int line = 0;              // line of the comment carrying the marker
  int target_line = 0;       // line whose findings it suppresses
  std::vector<std::string> rules;
  bool justified = false;
  bool blanket = false;      // NOLINT with no (rule-list) at all
};

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

void ParseNolint(const Comment& comment, const char* marker, int target_line,
                 std::vector<Suppression>* out) {
  // A directive is the comment: "// NOLINT..." with nothing but whitespace
  // before the marker. Prose that merely *mentions* NOLINT mid-sentence
  // (doc comments about this very policy) is not a directive.
  size_t pos = comment.text.find(marker);
  if (pos == std::string::npos) return;
  if (!Trim(comment.text.substr(0, pos)).empty()) return;
  const size_t after = pos + std::string(marker).size();
  // A bare "NOLINT" inside "NOLINTNEXTLINE" belongs to the other marker.
  if (comment.text.compare(after, 8, "NEXTLINE") == 0) return;
  size_t open = comment.text.find('(', pos);
  if (open == std::string::npos ||
      !Trim(comment.text.substr(after, open - after)).empty()) {
    // No (rule-list) directly after the marker. "// NOLINT" alone or
    // "// NOLINT: why" is a blanket suppression — always a policy
    // violation, it must name the rule it waves through. A comment that
    // continues with prose ("// NOLINT markers are parsed here") is
    // documentation, not a directive.
    std::string tail = Trim(comment.text.substr(after));
    if (tail.empty() || tail[0] == ':' || tail[0] == '-') {
      Suppression blanket;
      blanket.line = comment.line;
      blanket.target_line = target_line;
      blanket.blanket = true;
      out->push_back(std::move(blanket));
    }
    return;
  }
  size_t close = comment.text.find(')', open);
  if (close == std::string::npos) return;
  Suppression sup;
  sup.line = comment.line;
  sup.target_line = target_line;
  std::istringstream in(comment.text.substr(open + 1, close - open - 1));
  std::string rule;
  while (std::getline(in, rule, ',')) {
    rule = Trim(rule);
    if (!rule.empty()) sup.rules.push_back(rule);
  }
  // Justification: any real text after the closing paren, past separators.
  std::string tail = Trim(comment.text.substr(close + 1));
  while (!tail.empty() && (tail[0] == ':' || tail[0] == '-')) {
    tail = Trim(tail.substr(1));
  }
  sup.justified = tail.size() >= 3;
  out->push_back(std::move(sup));
}

std::vector<Finding> ApplySuppressions(const LexedFile& file,
                                       std::vector<Finding> findings) {
  std::vector<Suppression> sups;
  for (const Comment& c : file.comments) {
    ParseNolint(c, "NOLINTNEXTLINE", c.line + 1, &sups);
    ParseNolint(c, "NOLINT", c.line, &sups);
  }
  std::vector<Finding> kept;
  std::set<int> unjustified_reported;
  for (Finding& f : findings) {
    bool suppressed = false;
    for (const Suppression& sup : sups) {
      if (sup.target_line != f.line) continue;
      if (std::find(sup.rules.begin(), sup.rules.end(), f.rule) ==
          sup.rules.end()) {
        continue;
      }
      if (sup.justified) {
        suppressed = true;
        break;
      }
      if (unjustified_reported.insert(sup.line).second) {
        kept.push_back(
            {file.path, sup.line, kRuleNolintJustify,
             "NOLINT suppression of " + f.rule +
                 " lacks a justification; append one after the rule list, "
                 "e.g. // NOLINTNEXTLINE(" + f.rule + "): <why this is "
                 "safe>"});
      }
    }
    if (!suppressed) kept.push_back(std::move(f));
  }
  // Policy sweep: EVERY suppression in the tree needs a written
  // justification, including ones aimed at clang-tidy rules that never
  // collide with a longdp-* finding. Blanket NOLINTs (no rule list) are
  // always violations.
  for (const Suppression& sup : sups) {
    if (sup.justified && !sup.blanket) continue;
    if (!unjustified_reported.insert(sup.line).second) continue;
    kept.push_back(
        {file.path, sup.line, kRuleNolintJustify,
         sup.blanket
             ? std::string("blanket NOLINT; name the suppressed rule(s) "
                           "and justify, e.g. // NOLINT(<rule>): <why>")
             : "NOLINT suppression lacks a justification; append one after "
               "the rule list, e.g. // NOLINTNEXTLINE(<rule>): <why this "
               "is safe>"});
  }
  return kept;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

std::vector<Finding> RunRules(const LexedFile& file,
                              const ProjectContext& ctx,
                              const Options& options) {
  std::vector<Finding> findings;
  if (RuleEnabled(kRuleRawRng, options) &&
      !RuleExempt(kRuleRawRng, file.path, options)) {
    CheckRawRng(file, &findings);
  }
  if (RuleEnabled(kRuleNoiseViaDp, options) &&
      !RuleExempt(kRuleNoiseViaDp, file.path, options)) {
    CheckNoiseViaDp(file, &findings);
  }
  if (RuleEnabled(kRuleUnorderedIter, options) &&
      !RuleExempt(kRuleUnorderedIter, file.path, options)) {
    CheckUnorderedIteration(file, ctx, &findings);
  }
  if (RuleEnabled(kRuleStatusChecked, options) &&
      !RuleExempt(kRuleStatusChecked, file.path, options)) {
    CheckStatusDiscarded(file, ctx, &findings);
  }
  if (RuleEnabled(kRuleSubstream, options) &&
      !RuleExempt(kRuleSubstream, file.path, options)) {
    CheckSubstreamDiscipline(file, &findings);
  }
  if (RuleEnabled(kRuleSimdContained, options) &&
      !RuleExempt(kRuleSimdContained, file.path, options)) {
    CheckSimdContained(file, &findings);
  }
  return ApplySuppressions(file, std::move(findings));
}

void SortFindings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
}

bool HasSourceExtension(const std::filesystem::path& p) {
  static const std::set<std::string> kExts = {".h",   ".hh",  ".hpp",
                                              ".cc",  ".cpp", ".cxx"};
  return kExts.count(p.extension().string()) > 0;
}

bool Excluded(const std::string& path, const Options& options) {
  for (const auto& sub : options.excludes) {
    if (PathContains(path, sub)) return true;
  }
  return false;
}

}  // namespace

std::string Finding::ToString() const {
  std::ostringstream out;
  out << path << ":" << line << ": warning: " << message << " [" << rule
      << "]";
  return out.str();
}

const std::vector<std::string>& RuleNames() {
  static const std::vector<std::string> kRules = {
      kRuleRawRng, kRuleUnorderedIter, kRuleNoiseViaDp, kRuleStatusChecked,
      kRuleSubstream, kRuleSimdContained};
  return kRules;
}

bool IsKnownRule(const std::string& rule) {
  const std::vector<std::string>& rules = RuleNames();
  return rule == kRuleNolintJustify ||
         std::find(rules.begin(), rules.end(), rule) != rules.end();
}

std::vector<Finding> ScanSource(const std::string& path,
                                const std::string& content,
                                const Options& options) {
  LexedFile file = Lex(path, content);
  ProjectContext ctx;
  CollectDeclarations(file, &ctx);
  std::vector<Finding> findings = RunRules(file, ctx, options);
  SortFindings(&findings);
  return findings;
}

Result<std::vector<Finding>> ScanPaths(const std::vector<std::string>& paths,
                                       const Options& options) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    std::error_code ec;
    const fs::file_status st = fs::status(p, ec);
    if (ec || st.type() == fs::file_type::not_found) {
      return Status::IOError("no such file or directory: " + p);
    }
    if (fs::is_directory(st)) {
      for (fs::recursive_directory_iterator it(p, ec), end;
           it != end && !ec; it.increment(ec)) {
        if (it->is_regular_file() && HasSourceExtension(it->path())) {
          files.push_back(it->path().generic_string());
        }
      }
      if (ec) {
        return Status::IOError("walking " + p + ": " + ec.message());
      }
    } else {
      files.push_back(fs::path(p).generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<LexedFile> lexed;
  ProjectContext ctx;
  for (const std::string& f : files) {
    if (Excluded(f, options)) continue;
    std::ifstream in(f, std::ios::binary);
    if (!in) return Status::IOError("cannot open " + f);
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!in.good() && !in.eof()) {
      return Status::IOError("error reading " + f);
    }
    lexed.push_back(Lex(f, buf.str()));
    CollectDeclarations(lexed.back(), &ctx);
  }

  std::vector<Finding> findings;
  for (const LexedFile& file : lexed) {
    std::vector<Finding> fs_file = RunRules(file, ctx, options);
    findings.insert(findings.end(),
                    std::make_move_iterator(fs_file.begin()),
                    std::make_move_iterator(fs_file.end()));
  }
  SortFindings(&findings);
  return findings;
}

}  // namespace lint
}  // namespace longdp
