#pragma once

#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace x2vec::lint {

/// One lint finding, printed as "file:line: rule: message".
struct Diagnostic {
  std::string file;
  int line = 0;          ///< 1-based physical line of the offending token.
  std::string rule;      ///< Stable rule name, usable in allow(<rule>).
  std::string message;

  bool operator==(const Diagnostic&) const = default;
};

/// Stable names of every rule the linter knows, for --list-rules and for
/// validating allow(...) suppressions.
///
///   nondeterminism   banned randomness/time APIs (std::random_device,
///                    rand/srand, time(nullptr), raw std::mt19937 engines
///                    outside base/rng)
///   chrono           raw std::chrono / std::this_thread outside the
///                    timing whitelist (base/budget, base/parallel,
///                    base/trace, base/metrics, base/fs, bench/)
///   rng-fork         an rng used inside a ParallelFor/ParallelMap lambda
///                    body that never forks a per-work-item stream via
///                    Rng::Fork / MixSeed
///   pragma-once      header whose first non-comment line is not
///                    #pragma once
///   using-namespace  using-namespace directive in a header
///   row-copy         allocating Matrix::Row()/SetRow() copies in a hot
///                    module (src/embed, src/kg, src/ml, src/kernel,
///                    src/sim, src/gnn); hot loops use
///                    RowSpan()/ConstRowSpan() and the linalg span kernels
///   raw-file-io      write-capable raw file APIs (std::ofstream,
///                    std::fstream, fopen, freopen) outside base/fs — the
///                    single durable atomic-write layer. std::ifstream
///                    (read-only) stays legal everywhere. Also flags
///                    mmap/munmap (and <sys/mman.h>) outside graph/csr* —
///                    the one sanctioned zero-copy mapped loader.
///   intrinsics       raw SIMD surface (intrinsic headers, _mm*/__m*
///                    identifiers, GCC vector_size extensions, CPUID
///                    builtins) outside the linalg/kernels_* backend
///                    files — numeric code calls through linalg/kernels so
///                    the generic golden path stays the reference.
///   statusor-deref   a StatusOr<T> local dereferenced (.value(), *x,
///                    x->) before any ok()/status() check in the same
///                    scope — the deref X2VEC_CHECK-aborts on error paths
///                    instead of propagating the Status
///   budget-gate      a budget-aware identifier used inside a
///                    ParallelFor/ParallelMap body in a hot module with
///                    no BudgetGate — Budget is single-threaded; construct
///                    a BudgetGate outside the loop and Spend() through it
///   include-cycle    (whole-program) a cycle in the project #include
///                    graph
///   layering         (whole-program) an include that violates the module
///                    layering declared in tools/lint/layers.txt, or a
///                    module missing from that file
///   metric-name      (whole-program) one X2VEC_METRIC_* name registered
///                    under conflicting kinds, or two names one edit apart
///   golden-literal   an integer literal of 16+ decimal or 13+ hex digits
///                    (a 64-bit digest) under tests/ outside
///                    tests/goldens.h, the one table of pinned digests
std::vector<std::string> RuleNames();

/// True for the file extensions the linter scans (.h, .cc, .cpp).
bool IsLintableFile(std::string_view path);

/// True when `path` may use raw std::chrono / std::this_thread: the budget
/// and parallel runtimes (they implement deadlines and the pool), the
/// observability layer (base/trace spans, base/metrics), base/fs (its
/// read-retry backoff sleeps) and bench timing code.
bool IsTimingWhitelisted(std::string_view path);

/// True when `path` may use raw write-capable file APIs (std::ofstream,
/// fopen): base/fs only, the sanctioned durable-I/O layer everything else
/// routes writes through.
bool IsFileIoWhitelisted(std::string_view path);

/// True when `path` may call mmap/munmap and include <sys/mman.h> (the
/// mmap clause of the raw-file-io rule): graph/csr* only — the zero-copy
/// CSR loader whose checksummed on-disk format validates what it maps.
bool IsMmapWhitelisted(std::string_view path);

/// True when `path` may declare raw std::mt19937 engines: base/rng, the
/// single sanctioned wrapper around the engine.
bool IsRawEngineWhitelisted(std::string_view path);

/// True when `path` may use raw SIMD (the intrinsics rule): the
/// linalg/kernels_* backend implementation files only.
bool IsIntrinsicsWhitelisted(std::string_view path);

/// True when `path` is a numeric hot module where Matrix::Row()/SetRow()
/// copies are banned (the row-copy rule): src/embed, src/kg, src/ml,
/// src/kernel, src/sim, src/gnn. Everywhere else (core plumbing, benches,
/// tests) a copy is often the right call and stays legal.
bool IsRowCopyHotPath(std::string_view path);

/// True when `path` may hold no 64-bit digest literal (the golden-literal
/// rule): every file under tests/ except tests/goldens.h, the golden
/// registry that every pin reads by name.
bool IsGoldenLiteralBanned(std::string_view path);

/// True when `path` is a module whose parallel loops must meter budget
/// spend through a BudgetGate (the budget-gate rule): the row-copy hot set
/// plus src/wl and src/hom — everywhere ParallelFor bodies do real work
/// against a budget.
bool IsBudgetGateHotPath(std::string_view path);

/// Returns `content` with comments and string/char literals blanked out
/// (newlines preserved), so token rules never fire on prose or literals.
/// C++14 digit separators (10'000'000) are recognised and do not open a
/// char literal. Exposed for tests.
std::string StripCommentsAndStrings(std::string_view content);

/// Returns `content` with comments blanked but string/char literals kept —
/// the view the metric-registry pass scans, since metric names live inside
/// string literals.
std::string StripComments(std::string_view content);

/// Per-line allow() sets parsed from the comment-trailer allow markers:
/// result[line - 1] holds the rules allowed on that line. Unknown
/// rule names are skipped here (LintFile reports them); markers quoted
/// inside string literals are ignored. Used by the whole-program passes to
/// honour suppressions in files they did not lint line-by-line.
std::vector<std::set<std::string>> AllowedRulesByLine(std::string_view content);

/// Lints one file's contents. `path` decides header-only rules (by
/// extension) and whitelist membership (by substring), so callers may pass
/// hypothetical paths to probe whitelist behaviour. Lines carrying an
/// allow marker are exempt from exactly the named rules on exactly that
/// line.
std::vector<Diagnostic> LintFile(const std::string& path,
                                 std::string_view content);

/// Recursively collects lintable files under each root (a root that is a
/// file is taken as-is). Paths containing "lint_fixtures" are skipped
/// unless `include_fixtures` is set — fixtures hold planted violations.
/// Results are sorted for deterministic output.
std::vector<std::string> CollectFiles(const std::vector<std::string>& roots,
                                      bool include_fixtures);

/// "file:line: rule: message".
std::string FormatDiagnostic(const Diagnostic& d);

/// A baseline of grandfathered findings: (path, rule) pairs. A finding
/// matching an entry is suppressed (reported as a baselined count, not a
/// failure) so new rules can land before every pre-existing violation is
/// fixed. Line numbers are deliberately absent — they drift.
using Baseline = std::set<std::pair<std::string, std::string>>;

/// Parses baseline text: one "<path>: <rule>" per line, '#' comments and
/// blank lines skipped. Returns false with *error set on a malformed line.
bool ParseBaseline(std::string_view content, Baseline* out,
                   std::string* error);

/// Serialises `diags` as baseline text (sorted, deduplicated, commented) —
/// what `x2vec_lint --write-baseline=FILE` writes.
std::string BaselineText(const std::vector<Diagnostic>& diags);

/// Drops diagnostics matching a baseline entry. `baselined` (may be null)
/// receives how many were dropped.
std::vector<Diagnostic> ApplyBaseline(std::vector<Diagnostic> diags,
                                      const Baseline& baseline,
                                      int* baselined);

}  // namespace x2vec::lint
