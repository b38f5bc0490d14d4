#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <regex>
#include <set>
#include <sstream>

namespace x2vec::lint {
namespace {

constexpr std::string_view kRules[] = {
    "nondeterminism",  "chrono",   "rng-fork",       "pragma-once",
    "using-namespace", "row-copy", "raw-file-io",    "intrinsics",
    "statusor-deref",  "budget-gate", "include-cycle", "layering",
    "metric-name",     "golden-literal",
};

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// Normalises Windows separators so whitelist substring checks are uniform.
std::string Normalise(std::string_view path) {
  std::string out(path);
  std::replace(out.begin(), out.end(), '\\', '/');
  return out;
}

bool IsHeaderPath(std::string_view path) { return EndsWith(path, ".h"); }

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// 1-based line number of offset `pos` in `text`.
int LineOf(std::string_view text, size_t pos) {
  return 1 + static_cast<int>(std::count(text.begin(), text.begin() + pos, '\n'));
}

/// Splits text into lines (without terminators); blanked views keep the
/// same line structure as the raw file, so indices line up.
std::vector<std::string> SplitLines(std::string_view text) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  lines.push_back(std::move(current));
  return lines;
}

/// Per-line suppressions parsed from the comment-trailer allow markers
/// (rule names comma-separated). A suppression silences its own physical
/// line only.
struct Suppressions {
  std::vector<std::set<std::string>> allowed_by_line;  // index = line - 1
  std::vector<Diagnostic> errors;  // malformed / unknown-rule markers

  bool Allows(int line, const std::string& rule) const {
    const size_t idx = static_cast<size_t>(line - 1);
    return idx < allowed_by_line.size() &&
           allowed_by_line[idx].count(rule) > 0;
  }
};

Suppressions ParseSuppressions(const std::string& path,
                               const std::vector<std::string>& raw_lines) {
  static const std::regex kMarker(R"(x2vec-lint:\s*allow\(([^)]*)\))");
  Suppressions sup;
  sup.allowed_by_line.resize(raw_lines.size());
  for (size_t i = 0; i < raw_lines.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(raw_lines[i], m, kMarker)) continue;
    std::stringstream list(m[1].str());
    std::string rule;
    while (std::getline(list, rule, ',')) {
      // Trim surrounding whitespace.
      const auto first = rule.find_first_not_of(" \t");
      if (first == std::string::npos) continue;
      const auto last = rule.find_last_not_of(" \t");
      rule = rule.substr(first, last - first + 1);
      const bool known =
          std::any_of(std::begin(kRules), std::end(kRules),
                      [&](std::string_view r) { return r == rule; });
      if (known) {
        sup.allowed_by_line[i].insert(rule);
      } else {
        sup.errors.push_back({path, static_cast<int>(i + 1), "lint-usage",
                              "allow() names unknown rule '" + rule + "'"});
      }
    }
  }
  return sup;
}

// -- Rule: nondeterminism -----------------------------------------------------

void CheckNondeterminism(const std::string& path,
                         const std::vector<std::string>& code_lines,
                         bool raw_engine_ok, std::vector<Diagnostic>* out) {
  struct Banned {
    std::regex pattern;
    std::string message;
  };
  static const std::vector<Banned> kBanned = {
      {std::regex(R"(std\s*::\s*random_device)"),
       "std::random_device is nondeterministic; seed an x2vec::Rng instead"},
      {std::regex(R"((^|[^\w])srand\s*\()"),
       "srand() mutates hidden global state; pass an x2vec::Rng"},
      {std::regex(R"((^|[^\w:])rand\s*\(\s*\))"),
       "rand() draws from hidden global state; pass an x2vec::Rng"},
      {std::regex(R"((^|[^\w])std\s*::\s*rand\s*\(\s*\))"),
       "std::rand() draws from hidden global state; pass an x2vec::Rng"},
      {std::regex(R"((^|[^\w])time\s*\(\s*(nullptr|NULL|0)\s*\))"),
       "time(nullptr) seeds are irreproducible; use an explicit seed"},
  };
  static const std::regex kRawEngine(R"(std\s*::\s*mt19937(_64)?\b)");
  for (size_t i = 0; i < code_lines.size(); ++i) {
    const std::string& line = code_lines[i];
    for (const Banned& b : kBanned) {
      if (std::regex_search(line, b.pattern)) {
        out->push_back(
            {path, static_cast<int>(i + 1), "nondeterminism", b.message});
      }
    }
    if (!raw_engine_ok && std::regex_search(line, kRawEngine)) {
      out->push_back({path, static_cast<int>(i + 1), "nondeterminism",
                      "raw std::mt19937 engines live in base/rng only; use "
                      "x2vec::Rng / Rng::Fork"});
    }
  }
}

// -- Rule: chrono -------------------------------------------------------------

void CheckChrono(const std::string& path,
                 const std::vector<std::string>& code_lines,
                 std::vector<Diagnostic>* out) {
  static const std::regex kClock(R"(std\s*::\s*(chrono|this_thread)\b)");
  for (size_t i = 0; i < code_lines.size(); ++i) {
    if (std::regex_search(code_lines[i], kClock)) {
      out->push_back({path, static_cast<int>(i + 1), "chrono",
                      "raw std::chrono/std::this_thread outside base/budget, "
                      "base/parallel, base/trace, base/metrics, base/fs and "
                      "bench timing code; route timing through Budget or "
                      "trace::Span/StopWatch, or suppress with "
                      "allow(chrono)"});
    }
  }
}

// -- Rule: rng-fork -----------------------------------------------------------

/// Returns the offset just past the matching closer for the opener at
/// `open`, or npos when unbalanced. `text` must be the blanked code view so
/// braces in strings/comments do not confuse the match.
size_t MatchFrom(std::string_view text, size_t open, char open_c, char close_c) {
  int depth = 0;
  for (size_t i = open; i < text.size(); ++i) {
    if (text[i] == open_c) ++depth;
    if (text[i] == close_c && --depth == 0) return i + 1;
  }
  return std::string_view::npos;
}

/// Calls `visit(body_open, body)` for the inline lambda body of every
/// call that runs its lambda on pool workers — ParallelFor, ParallelMap,
/// ParallelForUntilDeadline and the kernel module's ForEachGraph and
/// FillGram — in the blanked code view. `body_open` is the offset of the
/// body's '{' in `code`; `body` spans '{' to '}' inclusive. Loop bodies are
/// always written inline as lambdas in this codebase, so calls without one
/// are skipped.
template <typename Visitor>
void ForEachParallelBody(std::string_view code, const Visitor& visit) {
  static const std::regex kCall(
      R"(\b(ParallelFor|ParallelMap|ParallelForUntilDeadline|ForEachGraph|)"
      R"(FillGram)\b)");
  const std::string code_str(code);
  for (auto it = std::sregex_iterator(code_str.begin(), code_str.end(), kCall);
       it != std::sregex_iterator(); ++it) {
    size_t pos = static_cast<size_t>(it->position()) + it->length();
    while (pos < code.size() &&
           std::isspace(static_cast<unsigned char>(code[pos]))) {
      ++pos;
    }
    if (pos >= code.size() || code[pos] != '(') continue;  // not a call
    const size_t args_end = MatchFrom(code, pos, '(', ')');
    if (args_end == std::string_view::npos) continue;
    // First '[' at argument depth is the lambda introducer.
    size_t intro = std::string_view::npos;
    int depth = 0;
    for (size_t i = pos; i < args_end; ++i) {
      if (code[i] == '(') ++depth;
      if (code[i] == ')') --depth;
      if (code[i] == '[' && depth == 1) {
        intro = i;
        break;
      }
    }
    if (intro == std::string_view::npos) continue;  // no lambda argument
    const size_t body_open = code.find('{', intro);
    if (body_open == std::string_view::npos || body_open > args_end) continue;
    const size_t body_end = MatchFrom(code, body_open, '{', '}');
    if (body_end == std::string_view::npos) continue;
    visit(body_open, code.substr(body_open, body_end - body_open));
  }
}

void CheckRngFork(const std::string& path, std::string_view code,
                  std::vector<Diagnostic>* out) {
  static const std::regex kRngUse(R"([A-Za-z_][A-Za-z0-9_]*)");
  static const std::regex kFork(R"(\b(Fork|MixSeed)\s*\()");
  ForEachParallelBody(code, [&](size_t body_open, std::string_view body_view) {
    const std::string body(body_view);
    if (std::regex_search(body, kFork)) return;  // forks per work item
    // Any identifier mentioning an rng inside the body now means a shared
    // stream captured into parallel work — draws would depend on thread
    // interleaving.
    for (auto id = std::sregex_iterator(body.begin(), body.end(), kRngUse);
         id != std::sregex_iterator(); ++id) {
      std::string name = id->str();
      std::transform(name.begin(), name.end(), name.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (name.find("rng") == std::string::npos) continue;
      const size_t off = body_open + static_cast<size_t>(id->position());
      out->push_back({path, LineOf(code, off), "rng-fork",
                      "'" + id->str() +
                          "' used inside a ParallelFor/ParallelMap body "
                          "without a per-work-item Rng::Fork/MixSeed stream"});
      break;  // one diagnostic per lambda body
    }
  });
}

// -- Rule: budget-gate --------------------------------------------------------

void CheckBudgetGate(const std::string& path, std::string_view code,
                     std::vector<Diagnostic>* out) {
  static const std::regex kIdent(R"([A-Za-z_][A-Za-z0-9_]*)");
  ForEachParallelBody(code, [&](size_t body_open, std::string_view body_view) {
    const std::string body(body_view);
    // A budget-flavoured identifier inside the body means the loop charges
    // a raw Budget from worker threads; Budget is single-use and not
    // thread-safe. The sanctioned pattern constructs a BudgetGate outside
    // the loop and calls gate.Spend() inside, so gate-flavoured names
    // (BudgetGate itself, budget_gate locals) are the fix, not a finding.
    for (auto id = std::sregex_iterator(body.begin(), body.end(), kIdent);
         id != std::sregex_iterator(); ++id) {
      std::string name = id->str();
      std::transform(name.begin(), name.end(), name.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (name.find("budget") == std::string::npos ||
          name.find("gate") != std::string::npos) {
        continue;
      }
      const size_t off = body_open + static_cast<size_t>(id->position());
      out->push_back(
          {path, LineOf(code, off), "budget-gate",
           "'" + id->str() +
               "' charged inside a ParallelFor/ParallelMap body; Budget is "
               "not thread-safe — construct a BudgetGate outside the loop "
               "and Spend() through it, or suppress with "
               "allow(budget-gate)"});
      break;  // one diagnostic per lambda body
    }
  });
}

// -- Rule: statusor-deref -----------------------------------------------------

void CheckStatusOrDeref(const std::string& path, std::string_view code,
                        std::vector<Diagnostic>* out) {
  // Finds `StatusOr<...> name = ...;` local declarations (the `=` keeps
  // function declarations out) and scans the rest of the enclosing scope:
  // the first dereference must come after an ok()/status() check. Derefs
  // of temporaries (`*Foo(...)`) are out of scope for this pass — there is
  // no name to track.
  static const std::regex kDecl(R"(\bStatusOr\s*<)");
  const std::string code_str(code);
  for (auto it = std::sregex_iterator(code_str.begin(), code_str.end(), kDecl);
       it != std::sregex_iterator(); ++it) {
    // Skip the template argument list (angle depth; >> closes two).
    size_t pos = static_cast<size_t>(it->position()) + it->length();
    int angle = 1;
    while (pos < code.size() && angle > 0) {
      if (code[pos] == '<') ++angle;
      if (code[pos] == '>') --angle;
      ++pos;
    }
    if (angle != 0) continue;
    while (pos < code.size() &&
           std::isspace(static_cast<unsigned char>(code[pos]))) {
      ++pos;
    }
    size_t name_end = pos;
    while (name_end < code.size() && IsIdentChar(code[name_end])) ++name_end;
    if (name_end == pos) continue;  // no declared name (return type etc.)
    const std::string name(code.substr(pos, name_end - pos));
    size_t after = name_end;
    while (after < code.size() &&
           std::isspace(static_cast<unsigned char>(code[after]))) {
      ++after;
    }
    if (after >= code.size() || code[after] != '=') continue;  // not a decl

    // The enclosing scope ends where brace depth drops below the decl's.
    size_t scope_end = code.size();
    int depth = 0;
    for (size_t i = after; i < code.size(); ++i) {
      if (code[i] == '{') ++depth;
      if (code[i] == '}' && --depth < 0) {
        scope_end = i;
        break;
      }
    }
    const std::string scope(code.substr(after, scope_end - after));

    const std::regex deref(
        R"((\b)" + name + R"(\s*(\.\s*value\s*\(|->)|\b)" + name +
        R"(\s*\)\s*\.\s*value\s*\(|(^|[^\w\)\]])\*\s*)" + name + R"(\b))");
    const std::regex check(R"(\b)" + name + R"(\s*(\.|\))\s*\s*)"
                           R"((ok|status)\s*\()");
    std::smatch deref_m;
    if (!std::regex_search(scope, deref_m, deref)) continue;
    std::smatch check_m;
    const bool checked = std::regex_search(scope, check_m, check) &&
                         check_m.position() < deref_m.position();
    if (checked) continue;
    // Report at the first group that actually matched text.
    size_t deref_off = static_cast<size_t>(deref_m.position());
    out->push_back(
        {path, LineOf(code, after + deref_off), "statusor-deref",
         "'" + name +
             "' dereferenced before any ok()/status() check in this scope; "
             "on error paths value()/operator* aborts via X2VEC_CHECK "
             "instead of propagating the Status — check " + name +
             ".ok() first, or suppress with allow(statusor-deref)"});
  }
}

// -- Rule: row-copy -----------------------------------------------------------

void CheckRowCopy(const std::string& path,
                  const std::vector<std::string>& code_lines,
                  std::vector<Diagnostic>* out) {
  // Matches ".Row(" / ".SetRow(" but not ".RowSpan(" — the span accessors
  // are exactly what hot loops should migrate to.
  static const std::regex kRowCopy(R"(\.\s*(Set)?Row\s*\()");
  for (size_t i = 0; i < code_lines.size(); ++i) {
    if (std::regex_search(code_lines[i], kRowCopy)) {
      out->push_back({path, static_cast<int>(i + 1), "row-copy",
                      "Matrix::Row()/SetRow() allocates a copy per call; hot "
                      "modules use RowSpan()/ConstRowSpan() with the linalg "
                      "span kernels, or suppress with allow(row-copy)"});
    }
  }
}

// -- Rule: raw-file-io --------------------------------------------------------

void CheckRawFileIo(const std::string& path,
                    const std::vector<std::string>& code_lines,
                    std::vector<Diagnostic>* out) {
  // Write-capable file APIs only: std::ifstream stays legal (reads cannot
  // corrupt anything), and fopen/freopen are banned outright because their
  // mode string is not statically known.
  static const std::regex kRawWrite(
      R"(std\s*::\s*(o?fstream|basic_ofstream|basic_fstream)\b|(^|[^\w])f(re)?open\s*\()");
  for (size_t i = 0; i < code_lines.size(); ++i) {
    if (std::regex_search(code_lines[i], kRawWrite)) {
      out->push_back(
          {path, static_cast<int>(i + 1), "raw-file-io",
           "raw file writes (std::ofstream/std::fstream/fopen) bypass the "
           "durable atomic-rename path; write through base/fs "
           "(Fs::WriteFileAtomic), or suppress with allow(raw-file-io)"});
    }
  }
}

void CheckMmap(const std::string& path,
               const std::vector<std::string>& code_lines,
               std::vector<Diagnostic>* out) {
  // Memory mapping is part of the raw-file-io surface: an mmap'd region
  // bypasses the bounded, fault-injectable Fs read path entirely, so only
  // the CSR zero-copy loader (graph/csr*) — whose on-disk format carries
  // its own checksum validation — may open one.
  static const std::regex kMmap(
      R"(#\s*include\s*<sys/mman\.h>|(^|[^\w])m(un)?map\s*\()");
  for (size_t i = 0; i < code_lines.size(); ++i) {
    if (std::regex_search(code_lines[i], kMmap)) {
      out->push_back(
          {path, static_cast<int>(i + 1), "raw-file-io",
           "mmap bypasses the bounded fault-injectable Fs read path; only "
           "the CSR zero-copy loader (graph/csr*) may map files — read "
           "through base/fs, or suppress with allow(raw-file-io)"});
    }
  }
}

// -- Rule: intrinsics ---------------------------------------------------------

void CheckIntrinsics(const std::string& path,
                     const std::vector<std::string>& code_lines,
                     std::vector<Diagnostic>* out) {
  // Raw SIMD surface: intrinsic headers, _mm*/__m* identifiers, GCC vector
  // extensions and CPUID builtins. Everything numeric calls through
  // linalg/kernels so the golden generic path stays the one source of
  // truth; only the linalg/kernels_* backend files implement fast paths.
  static const std::regex kIntrinsics(
      R"(#\s*include\s*<\w*intrin\.h>|#\s*include\s*<arm_neon\.h>)"
      R"(|(^|[^\w])_mm(256|512)?_\w+)"
      R"(|(^|[^\w])__m(128|256|512)[di]?\b)"
      R"(|__builtin_ia32_|__builtin_cpu_(supports|init|is))"
      R"(|vector_size)");
  for (size_t i = 0; i < code_lines.size(); ++i) {
    if (std::regex_search(code_lines[i], kIntrinsics)) {
      out->push_back(
          {path, static_cast<int>(i + 1), "intrinsics",
           "raw SIMD (intrinsic headers, _mm*/__m*, vector_size, CPUID "
           "builtins) lives in the linalg/kernels_* backend files only; "
           "call through linalg/kernels, or suppress with "
           "allow(intrinsics)"});
    }
  }
}

// -- Rule: golden-literal -----------------------------------------------------

/// True when the number starting at `line[pos]` is an integer literal of
/// 16+ decimal or 13+ hex digits, not counting a 0x prefix, separators or
/// the suffix. `*end` receives the offset past the number.
bool IsDigestLiteral(std::string_view line, size_t pos, size_t* end) {
  size_t j = pos;
  while (j < line.size() &&
         (IsIdentChar(line[j]) || line[j] == '\'' || line[j] == '.' ||
          ((line[j] == '+' || line[j] == '-') &&
           std::string_view("eEpP").find(line[j - 1]) !=
               std::string_view::npos))) {
    ++j;
  }
  *end = j;
  const std::string_view number = line.substr(pos, j - pos);
  const bool hex = number.size() > 1 && number[0] == '0' &&
                   (number[1] == 'x' || number[1] == 'X');
  // A floating-point literal is no digest.
  if (number.find_first_of(hex ? ".pP" : ".eE") != std::string_view::npos) {
    return false;
  }
  int digits = 0;
  for (size_t k = hex ? 2 : 0; k < number.size(); ++k) {
    const unsigned char c = static_cast<unsigned char>(number[k]);
    if (c == '\'') continue;
    if (hex ? std::isxdigit(c) == 0 : std::isdigit(c) == 0) break;
    ++digits;
  }
  return digits >= (hex ? 13 : 16);
}

void CheckGoldenLiteral(const std::string& path,
                        const std::vector<std::string>& code_lines,
                        std::vector<Diagnostic>* out) {
  // An integer literal of 16+ decimal or 13+ hex digits is a 64-bit digest
  // in all but name; pinned digests live in one named table so a
  // regeneration is one edit of one file.
  for (size_t i = 0; i < code_lines.size(); ++i) {
    const std::string& line = code_lines[i];
    for (size_t pos = 0; pos < line.size();) {
      const bool starts = std::isdigit(static_cast<unsigned char>(line[pos])) &&
                          (pos == 0 || (!IsIdentChar(line[pos - 1]) &&
                                        line[pos - 1] != '.'));
      if (!starts) {
        ++pos;
        continue;
      }
      size_t end = pos;
      if (IsDigestLiteral(line, pos, &end)) {
        out->push_back(
            {path, static_cast<int>(i + 1), "golden-literal",
             "64-bit digest literal outside tests/goldens.h; pin it as a "
             "named entry of the golden table and read it through "
             "ExpectGolden, or suppress with allow(golden-literal)"});
        break;  // one diagnostic per line
      }
      pos = end;
    }
  }
}

// -- Rules: pragma-once / using-namespace (headers) ---------------------------

void CheckHeaderHygiene(const std::string& path,
                        const std::vector<std::string>& code_lines,
                        std::vector<Diagnostic>* out) {
  static const std::regex kUsingNamespace(R"((^|[^\w])using\s+namespace\b)");
  static const std::regex kBlank(R"(^\s*$)");
  int first_code_line = -1;
  for (size_t i = 0; i < code_lines.size(); ++i) {
    if (!std::regex_match(code_lines[i], kBlank)) {
      first_code_line = static_cast<int>(i + 1);
      break;
    }
  }
  if (first_code_line == -1) return;  // empty header: nothing to protect
  static const std::regex kPragmaOnce(R"(^\s*#\s*pragma\s+once\s*$)");
  if (!std::regex_match(code_lines[first_code_line - 1], kPragmaOnce)) {
    out->push_back({path, first_code_line, "pragma-once",
                    "header must open with #pragma once (before any code)"});
  }
  for (size_t i = 0; i < code_lines.size(); ++i) {
    if (std::regex_search(code_lines[i], kUsingNamespace)) {
      out->push_back({path, static_cast<int>(i + 1), "using-namespace",
                      "using-namespace directives leak into every includer; "
                      "qualify names or alias instead"});
    }
  }
}

}  // namespace

std::vector<std::string> RuleNames() {
  return {std::begin(kRules), std::end(kRules)};
}

bool IsLintableFile(std::string_view path) {
  return EndsWith(path, ".h") || EndsWith(path, ".cc") ||
         EndsWith(path, ".cpp");
}

bool IsTimingWhitelisted(std::string_view path) {
  const std::string p = Normalise(path);
  return p.find("base/budget") != std::string::npos ||
         p.find("base/parallel") != std::string::npos ||
         p.find("base/trace") != std::string::npos ||
         p.find("base/metrics") != std::string::npos ||
         p.find("base/fs") != std::string::npos ||
         p.find("bench/") != std::string::npos;
}

bool IsFileIoWhitelisted(std::string_view path) {
  const std::string p = Normalise(path);
  return p.find("base/fs") != std::string::npos;
}

bool IsMmapWhitelisted(std::string_view path) {
  const std::string p = Normalise(path);
  return p.find("graph/csr") != std::string::npos;
}

bool IsRawEngineWhitelisted(std::string_view path) {
  const std::string p = Normalise(path);
  return p.find("base/rng") != std::string::npos;
}

bool IsIntrinsicsWhitelisted(std::string_view path) {
  const std::string p = Normalise(path);
  return p.find("linalg/kernels_") != std::string::npos;
}

bool IsRowCopyHotPath(std::string_view path) {
  const std::string p = Normalise(path);
  return p.find("src/embed/") != std::string::npos ||
         p.find("src/kg/") != std::string::npos ||
         p.find("src/ml/") != std::string::npos ||
         p.find("src/kernel/") != std::string::npos ||
         p.find("src/sim/") != std::string::npos ||
         p.find("src/gnn/") != std::string::npos ||
         p.find("src/serve/") != std::string::npos;
}

bool IsGoldenLiteralBanned(std::string_view path) {
  const std::string p = Normalise(path);
  return p.find("tests/") != std::string::npos &&
         !EndsWith(p, "tests/goldens.h");
}

bool IsBudgetGateHotPath(std::string_view path) {
  const std::string p = Normalise(path);
  return IsRowCopyHotPath(path) ||
         p.find("src/wl/") != std::string::npos ||
         p.find("src/hom/") != std::string::npos;
}

namespace {

/// True when the ' at offset `pos` is a C++14 digit separator (10'000,
/// 0x1F'2A) rather than the opening quote of a char literal. Walk back
/// over the numeric-literal alphabet: the quote is a separator exactly
/// when that walk is non-empty, lands on a digit, and the character before
/// the literal is not an identifier char (which rules out L'a', u8'a' and
/// identifier''-suffix forms).
bool IsDigitSeparator(std::string_view content, size_t pos) {
  size_t j = pos;
  while (j > 0) {
    const char p = content[j - 1];
    const bool literal_char =
        std::isxdigit(static_cast<unsigned char>(p)) != 0 || p == '\'' ||
        p == 'x' || p == 'X' || p == '.';
    if (!literal_char) break;
    --j;
  }
  return j < pos && std::isdigit(static_cast<unsigned char>(content[j])) != 0 &&
         (j == 0 || !IsIdentChar(content[j - 1]));
}

/// Shared blanking pass. `strip_comments` blanks comment text (off for the
/// suppression parser — markers live in comments); `strip_strings` blanks
/// string/char literal contents (off for the metric scan — names live in
/// string literals). State is tracked either way so the modes agree on
/// where code is.
std::string StripImpl(std::string_view content, bool strip_comments,
                      bool strip_strings) {
  std::string out(content);
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          if (strip_comments) out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          if (strip_comments) out[i] = ' ';
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !IsIdentChar(content[i - 1]))) {
          // Raw string literal: R"delim( ... )delim"
          size_t j = i + 2;
          raw_delim.clear();
          while (j < content.size() && content[j] != '(') {
            raw_delim.push_back(content[j]);
            ++j;
          }
          state = State::kRawString;
          // Keep the R" prefix blanked from the opening quote onwards.
          if (strip_strings) {
            for (size_t k = i + 1; k <= j && k < content.size(); ++k) {
              if (content[k] != '\n') out[k] = ' ';
            }
          }
          i = j;  // resume after '('
        } else if (c == '"') {
          state = State::kString;
          // Leave the quote; blank the contents.
        } else if (c == '\'' && !IsDigitSeparator(content, i)) {
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else if (strip_comments) {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          if (strip_comments) {
            out[i] = ' ';
            out[i + 1] = ' ';
          }
          ++i;
          state = State::kCode;
        } else if (c != '\n' && strip_comments) {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          if (strip_strings) {
            out[i] = ' ';
            if (next != '\n') out[i + 1] = ' ';
          }
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n' && strip_strings) {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          if (strip_strings) {
            out[i] = ' ';
            if (next != '\n') out[i + 1] = ' ';
          }
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        } else if (c != '\n' && strip_strings) {
          out[i] = ' ';
        }
        break;
      case State::kRawString: {
        const std::string closer = ")" + raw_delim + "\"";
        if (content.compare(i, closer.size(), closer) == 0) {
          if (strip_strings) {
            for (size_t k = i; k < i + closer.size(); ++k) out[k] = ' ';
          }
          i += closer.size() - 1;
          state = State::kCode;
        } else if (c != '\n' && strip_strings) {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

}  // namespace

std::string StripCommentsAndStrings(std::string_view content) {
  return StripImpl(content, /*strip_comments=*/true, /*strip_strings=*/true);
}

std::string StripComments(std::string_view content) {
  return StripImpl(content, /*strip_comments=*/true, /*strip_strings=*/false);
}

std::vector<std::set<std::string>> AllowedRulesByLine(
    std::string_view content) {
  const std::vector<std::string> raw_lines =
      SplitLines(StripImpl(content, /*strip_comments=*/false,
                           /*strip_strings=*/true));
  return ParseSuppressions("", raw_lines).allowed_by_line;
}

std::vector<Diagnostic> LintFile(const std::string& path,
                                 std::string_view content) {
  const std::string code = StripCommentsAndStrings(content);
  // Suppression markers live in comments; blanking only the string
  // literals means a marker quoted in code (e.g. in the linter's own
  // tests) is not mistaken for a real suppression.
  const std::vector<std::string> raw_lines = SplitLines(
      StripImpl(content, /*strip_comments=*/false, /*strip_strings=*/true));
  const std::vector<std::string> code_lines = SplitLines(code);

  std::vector<Diagnostic> found;
  CheckNondeterminism(path, code_lines, IsRawEngineWhitelisted(path), &found);
  if (!IsTimingWhitelisted(path)) CheckChrono(path, code_lines, &found);
  if (!IsFileIoWhitelisted(path)) CheckRawFileIo(path, code_lines, &found);
  if (!IsMmapWhitelisted(path)) CheckMmap(path, code_lines, &found);
  if (!IsIntrinsicsWhitelisted(path)) CheckIntrinsics(path, code_lines, &found);
  CheckRngFork(path, code, &found);
  CheckStatusOrDeref(path, code, &found);
  if (IsBudgetGateHotPath(path)) CheckBudgetGate(path, code, &found);
  if (IsRowCopyHotPath(path)) CheckRowCopy(path, code_lines, &found);
  if (IsGoldenLiteralBanned(path)) CheckGoldenLiteral(path, code_lines, &found);
  if (IsHeaderPath(path)) CheckHeaderHygiene(path, code_lines, &found);

  const Suppressions sup = ParseSuppressions(path, raw_lines);
  std::vector<Diagnostic> out;
  for (Diagnostic& d : found) {
    if (!sup.Allows(d.line, d.rule)) out.push_back(std::move(d));
  }
  out.insert(out.end(), sup.errors.begin(), sup.errors.end());
  std::sort(out.begin(), out.end(), [](const Diagnostic& a,
                                       const Diagnostic& b) {
    return std::tie(a.line, a.rule, a.message) <
           std::tie(b.line, b.rule, b.message);
  });
  return out;
}

std::vector<std::string> CollectFiles(const std::vector<std::string>& roots,
                                      bool include_fixtures) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  const auto excluded = [&](const std::string& p) {
    return !include_fixtures && p.find("lint_fixtures") != std::string::npos;
  };
  for (const std::string& root : roots) {
    if (fs::is_regular_file(root)) {
      if (IsLintableFile(root) && !excluded(Normalise(root))) {
        files.push_back(root);
      }
      continue;
    }
    if (!fs::is_directory(root)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      const std::string p = entry.path().generic_string();
      if (IsLintableFile(p) && !excluded(p)) files.push_back(p);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

std::string FormatDiagnostic(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ": " + d.rule + ": " +
         d.message;
}

bool ParseBaseline(std::string_view content, Baseline* out,
                   std::string* error) {
  std::stringstream stream{std::string(content)};
  std::string line;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    line = line.substr(first, last - first + 1);
    const size_t colon = line.rfind(": ");
    if (colon == std::string::npos) {
      *error = "baseline line " + std::to_string(line_no) +
               ": expected '<path>: <rule>'";
      return false;
    }
    out->emplace(line.substr(0, colon), line.substr(colon + 2));
  }
  return true;
}

std::string BaselineText(const std::vector<Diagnostic>& diags) {
  Baseline entries;
  for (const auto& d : diags) entries.emplace(d.file, d.rule);
  std::ostringstream out;
  out << "# x2vec_lint baseline: grandfathered findings, one '<path>: "
         "<rule>'\n# per line. Regenerate with --write-baseline=FILE; "
         "shrink it as\n# findings are fixed.\n";
  for (const auto& [file, rule] : entries) out << file << ": " << rule << "\n";
  return out.str();
}

std::vector<Diagnostic> ApplyBaseline(std::vector<Diagnostic> diags,
                                      const Baseline& baseline,
                                      int* baselined) {
  std::vector<Diagnostic> out;
  int dropped = 0;
  for (Diagnostic& d : diags) {
    if (baseline.count({d.file, d.rule}) > 0) {
      ++dropped;
    } else {
      out.push_back(std::move(d));
    }
  }
  if (baselined != nullptr) *baselined = dropped;
  return out;
}

}  // namespace x2vec::lint
