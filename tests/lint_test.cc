// Unit tests for x2vec_lint (tools/lint), driven by the planted-violation
// fixtures in tests/lint_fixtures/. Each fixture either trips exactly the
// rules it plants or proves a whitelist/suppression keeps a legitimate
// pattern quiet. `ctest -L lint` runs this suite plus the full-tree scan.

#include "lint.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis.h"
#include "gtest/gtest.h"

namespace x2vec::lint {
namespace {

#ifndef X2VEC_SOURCE_DIR
#error "X2VEC_SOURCE_DIR must point at the repository root"
#endif

std::string SourcePath(const std::string& relative) {
  return std::string(X2VEC_SOURCE_DIR) + "/" + relative;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Lints a fixture under its real repo-relative path.
std::vector<Diagnostic> LintFixture(const std::string& name) {
  const std::string rel = "tests/lint_fixtures/" + name;
  return LintFile(rel, ReadFileOrDie(SourcePath(rel)));
}

std::vector<std::string> Rules(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> rules;
  rules.reserve(diags.size());
  for (const auto& d : diags) rules.push_back(d.rule);
  return rules;
}

TEST(LintStripTest, BlanksCommentsAndStringsButKeepsLines) {
  const std::string code =
      "int x = 1;  // rand() in a comment\n"
      "const char* s = \"rand()\";\n"
      "/* rand()\n   srand(1) */ int y = 2;\n";
  const std::string stripped = StripCommentsAndStrings(code);
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(code.begin(), code.end(), '\n'));
  EXPECT_NE(stripped.find("int x = 1;"), std::string::npos);
  EXPECT_NE(stripped.find("int y = 2;"), std::string::npos);
}

TEST(LintStripTest, RawStringsAreBlanked) {
  const std::string code = "auto s = R\"(srand(42))\"; int z = 3;\n";
  const std::string stripped = StripCommentsAndStrings(code);
  EXPECT_EQ(stripped.find("srand"), std::string::npos);
  EXPECT_NE(stripped.find("int z = 3;"), std::string::npos);
}

TEST(LintRuleTest, PlantedLibcRandomnessIsReported) {
  const auto diags = LintFixture("bad_rand.cc");
  // srand(...), time(nullptr) (same line as srand) and rand().
  ASSERT_GE(diags.size(), 3u);
  for (const auto& d : diags) {
    EXPECT_EQ(d.rule, "nondeterminism") << FormatDiagnostic(d);
  }
}

TEST(LintRuleTest, RandomDeviceAndRawEngineAreReported) {
  const auto diags = LintFixture("bad_random_device.cc");
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, "nondeterminism");
  EXPECT_NE(diags[0].message.find("random_device"), std::string::npos);
  EXPECT_EQ(diags[1].rule, "nondeterminism");
  EXPECT_NE(diags[1].message.find("mt19937"), std::string::npos);
}

TEST(LintRuleTest, RawEngineIsAllowedInBaseRngOnly) {
  const std::string engine = "#pragma once\nstd::mt19937_64 engine_;\n";
  EXPECT_TRUE(LintFile("src/base/rng.h", engine).empty());
  const auto diags = LintFile("src/embed/sgns.cc", engine);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "nondeterminism");
}

TEST(LintRuleTest, UnforkedRngInParallelBodyIsReported) {
  const auto diags = LintFixture("bad_unforked_rng.cc");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "rng-fork");
  EXPECT_NE(diags[0].message.find("rng"), std::string::npos);
}

TEST(LintRuleTest, ForkedRngInParallelBodyIsClean) {
  EXPECT_TRUE(LintFixture("good_forked.cc").empty());
}

TEST(LintRuleTest, HeaderHygieneIsReported) {
  const auto diags = LintFixture("bad_header.h");
  const auto rules = Rules(diags);
  EXPECT_NE(std::find(rules.begin(), rules.end(), "pragma-once"), rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "using-namespace"),
            rules.end());
}

TEST(LintRuleTest, PragmaOnceHeaderIsClean) {
  EXPECT_TRUE(LintFile("src/x.h", "#pragma once\n\nint F();\n").empty());
  // Leading comments do not count as code before the pragma.
  EXPECT_TRUE(
      LintFile("src/x.h", "// Title.\n#pragma once\nint F();\n").empty());
}

TEST(LintWhitelistTest, BudgetAndParallelMayUseChrono) {
  // The real files, from disk: their std::chrono use is the sanctioned
  // implementation of deadlines and the pool, and must lint clean.
  for (const std::string rel :
       {"src/base/budget.cc", "src/base/budget.h", "src/base/parallel.cc"}) {
    const auto diags = LintFile(rel, ReadFileOrDie(SourcePath(rel)));
    EXPECT_TRUE(diags.empty())
        << rel << ": " << FormatDiagnostic(diags.front());
  }
}

TEST(LintWhitelistTest, ObservabilityLayerMayUseChrono) {
  // base/trace and base/metrics implement spans and stopwatches; their
  // chrono use is the sanctioned timing surface the rest of src/ goes
  // through, and the real files must lint clean.
  for (const std::string rel :
       {"src/base/trace.h", "src/base/trace.cc", "src/base/metrics.h",
        "src/base/metrics.cc"}) {
    const auto diags = LintFile(rel, ReadFileOrDie(SourcePath(rel)));
    EXPECT_TRUE(diags.empty())
        << rel << ": " << FormatDiagnostic(diags.front());
  }
}

TEST(LintWhitelistTest, ChronoStillFiresOutsideTheWhitelist) {
  // Widening the whitelist to base/trace + base/metrics must not have
  // loosened the rule anywhere else: the same planted violation still
  // fires under ordinary src/ paths, including the registry that used to
  // carry allow(chrono) markers.
  const std::string timing =
      ReadFileOrDie(SourcePath("tests/lint_fixtures/bad_chrono.cc"));
  for (const std::string rel :
       {"src/core/registry.cc", "src/embed/sgns.cc", "src/base/rng.cc"}) {
    const auto diags = LintFile(rel, timing);
    ASSERT_FALSE(diags.empty()) << rel;
    for (const auto& d : diags) EXPECT_EQ(d.rule, "chrono") << rel;
  }
  // And the whitelisted hypothetical paths stay quiet.
  EXPECT_TRUE(LintFile("src/base/trace_extra.cc", timing).empty());
  EXPECT_TRUE(LintFile("src/base/metrics_extra.cc", timing).empty());
}

TEST(LintWhitelistTest, BenchTimingPassesSrcTimingFails) {
  const std::string timing = ReadFileOrDie(SourcePath(
      "tests/lint_fixtures/timing.cc"));
  EXPECT_TRUE(LintFile("bench/perf_timing.cc", timing).empty());
  const auto diags = LintFile("src/core/perf_timing.cc", timing);
  ASSERT_FALSE(diags.empty());
  for (const auto& d : diags) EXPECT_EQ(d.rule, "chrono");
}

TEST(LintRuleTest, RowCopyFiresInHotModules) {
  // The planted Row()/SetRow() copies must each fire once when the fixture
  // is linted under any numeric hot-module path.
  const std::string code =
      ReadFileOrDie(SourcePath("tests/lint_fixtures/bad_row_copy.cc"));
  for (const std::string rel :
       {"src/embed/sgns.cc", "src/kg/rescal.cc", "src/ml/neighbors.cc",
        "src/kernel/graph_kernels.cc", "src/sim/matrix_norms.cc"}) {
    const auto diags = LintFile(rel, code);
    ASSERT_EQ(diags.size(), 2u) << rel;
    for (const auto& d : diags) {
      EXPECT_EQ(d.rule, "row-copy") << FormatDiagnostic(d);
      EXPECT_NE(d.message.find("RowSpan"), std::string::npos);
    }
  }
}

TEST(LintWhitelistTest, RowCopyIsLegalOutsideHotModules) {
  // Copies are the right call in core plumbing, benches and tests; the
  // fixture under its real path and under non-hot paths stays quiet.
  EXPECT_TRUE(LintFixture("bad_row_copy.cc").empty());
  const std::string code =
      ReadFileOrDie(SourcePath("tests/lint_fixtures/bad_row_copy.cc"));
  for (const std::string rel :
       {"src/core/registry.cc", "src/linalg/matrix.cc",
        "bench/tab_word2vec.cc", "tests/ml_test.cc"}) {
    EXPECT_TRUE(LintFile(rel, code).empty()) << rel;
  }
}

TEST(LintRuleTest, PlantedRawFileIoIsReported) {
  // ofstream, fstream, fopen and std::freopen each fire once; the
  // std::ifstream read at the end must not.
  const auto diags = LintFixture("bad_file_io.cc");
  ASSERT_EQ(diags.size(), 4u);
  for (const auto& d : diags) {
    EXPECT_EQ(d.rule, "raw-file-io") << FormatDiagnostic(d);
    EXPECT_NE(d.message.find("WriteFileAtomic"), std::string::npos);
  }
}

TEST(LintWhitelistTest, BaseFsMayUseRawFileIoAndChrono) {
  // base/fs IS the durable-I/O layer (and sleeps for read-retry backoff);
  // the real files must lint clean, as must hypothetical siblings.
  for (const std::string rel : {"src/base/fs.h", "src/base/fs.cc"}) {
    const auto diags = LintFile(rel, ReadFileOrDie(SourcePath(rel)));
    EXPECT_TRUE(diags.empty())
        << rel << ": " << FormatDiagnostic(diags.front());
  }
  const std::string writer = "#include <fstream>\nstd::ofstream out(\"x\");\n";
  EXPECT_TRUE(LintFile("src/base/fs_extra.cc", writer).empty());
}

TEST(LintWhitelistTest, RawFileIoFiresOutsideBaseFs) {
  const std::string code =
      ReadFileOrDie(SourcePath("tests/lint_fixtures/bad_file_io.cc"));
  // The rule holds across src/, tests/ and bench/: only base/fs may write.
  for (const std::string rel :
       {"src/data/io.cc", "src/base/trace.cc", "bench/tab_word2vec.cc",
        "tests/persist_test.cc"}) {
    const auto diags = LintFile(rel, code);
    ASSERT_EQ(diags.size(), 4u) << rel;
    for (const auto& d : diags) EXPECT_EQ(d.rule, "raw-file-io") << rel;
  }
}

TEST(LintRuleTest, IfstreamReadsDoNotTripRawFileIo) {
  const std::string reader =
      "#include <fstream>\n"
      "int Count(const char* p) {\n"
      "  std::ifstream in(p, std::ios::binary);\n"
      "  return in.good() ? 1 : 0;\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/data/io.cc", reader).empty());
}

TEST(LintSuppressionTest, AllowRawFileIoSilencesTheLine) {
  const std::string code =
      "#include <fstream>\n"
      "std::ofstream out(\"x\");  // x2vec-lint: allow(raw-file-io)\n";
  EXPECT_TRUE(LintFile("src/data/io.cc", code).empty());
}

TEST(LintRuleTest, PlantedMmapIsReported) {
  // The <sys/mman.h> include, the mmap call and the munmap call each fire
  // once under the raw-file-io rule; the `remap` identifier must not.
  const auto diags = LintFixture("bad_mmap.cc");
  ASSERT_EQ(diags.size(), 3u);
  for (const auto& d : diags) {
    EXPECT_EQ(d.rule, "raw-file-io") << FormatDiagnostic(d);
    EXPECT_NE(d.message.find("graph/csr"), std::string::npos);
  }
}

TEST(LintWhitelistTest, CsrMayUseMmap) {
  // graph/csr* is the one sanctioned zero-copy mapped loader: the real
  // files must lint clean, as must a hypothetical sibling.
  for (const std::string rel : {"src/graph/csr.h", "src/graph/csr.cc"}) {
    const auto diags = LintFile(rel, ReadFileOrDie(SourcePath(rel)));
    EXPECT_TRUE(diags.empty())
        << rel << ": " << FormatDiagnostic(diags.front());
  }
  const std::string mapper =
      "#include <sys/mman.h>\n"
      "void* M(int fd, unsigned long n) {\n"
      "  return mmap(nullptr, n, 1, 2, fd, 0);\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/graph/csr_mapped.cc", mapper).empty());
}

TEST(LintWhitelistTest, MmapFiresOutsideCsr) {
  const std::string code =
      ReadFileOrDie(SourcePath("tests/lint_fixtures/bad_mmap.cc"));
  // The clause holds across src/, tests/ and bench/ — base/fs included:
  // its bounded read path must never silently grow a mapping.
  for (const std::string rel :
       {"src/data/io.cc", "src/base/fs.cc", "bench/perf_stream.cc",
        "tests/csr_test.cc"}) {
    const auto diags = LintFile(rel, code);
    ASSERT_EQ(diags.size(), 3u) << rel;
    for (const auto& d : diags) EXPECT_EQ(d.rule, "raw-file-io") << rel;
  }
}

TEST(LintRuleTest, RowSpanAccessorsDoNotTripRowCopy) {
  const std::string code =
      "void F(linalg::Matrix& m) {\n"
      "  auto a = m.RowSpan(0);\n"
      "  auto b = m.ConstRowSpan(1);\n"
      "  (void)a; (void)b;\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/embed/sgns.cc", code).empty());
}

TEST(LintSuppressionTest, AllowRowCopySilencesTheLine) {
  const std::string code =
      "void F(linalg::Matrix& m) {\n"
      "  auto row = m.Row(0);  // x2vec-lint: allow(row-copy)\n"
      "  (void)row;\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/embed/sgns.cc", code).empty());
}

TEST(LintSuppressionTest, AllowSilencesExactlyOneLine) {
  const auto diags = LintFixture("allow_one_line.cc");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "nondeterminism");
  EXPECT_EQ(diags[0].line, 7);  // the rand() without the allow marker
}

TEST(LintSuppressionTest, FullySuppressedFileIsClean) {
  EXPECT_TRUE(LintFixture("good_allow.cc").empty());
}

TEST(LintSuppressionTest, AllowOnlySilencesTheNamedRule) {
  const std::string code =
      "#include <cstdlib>\n"
      "int x = rand();  // x2vec-lint: allow(chrono)\n";
  const auto diags = LintFile("src/x.cc", code);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "nondeterminism");
}

TEST(LintSuppressionTest, UnknownRuleInAllowIsItselfReported) {
  const auto diags =
      LintFile("src/x.cc", "int x = 0;  // x2vec-lint: allow(no-such-rule)\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "lint-usage");
}

TEST(LintCollectTest, FixturesAreExcludedByDefault) {
  const auto files =
      CollectFiles({SourcePath("tests")}, /*include_fixtures=*/false);
  for (const auto& f : files) {
    EXPECT_EQ(f.find("lint_fixtures"), std::string::npos) << f;
  }
  const auto with = CollectFiles({SourcePath("tests/lint_fixtures")},
                                 /*include_fixtures=*/true);
  EXPECT_GE(with.size(), 6u);
}

TEST(LintFormatTest, DiagnosticFormatIsFileLineRule) {
  const Diagnostic d{"src/a.cc", 12, "chrono", "raw clock"};
  EXPECT_EQ(FormatDiagnostic(d), "src/a.cc:12: chrono: raw clock");
}

TEST(LintRuleTest, PlantedIntrinsicsAreReported) {
  // The intrinsic header include, the vector_size extension, each _mm*/
  // __m* line and the CPUID builtin fire once per line.
  const auto diags = LintFixture("bad_intrinsics.cc");
  ASSERT_EQ(diags.size(), 6u);
  for (const auto& d : diags) {
    EXPECT_EQ(d.rule, "intrinsics") << FormatDiagnostic(d);
    EXPECT_NE(d.message.find("linalg/kernels_"), std::string::npos);
  }
}

TEST(LintWhitelistTest, KernelBackendFilesMayUseIntrinsics) {
  // The real backend files ARE the sanctioned raw-SIMD surface; they must
  // lint clean under their real paths, as must hypothetical siblings.
  for (const std::string rel :
       {"src/linalg/kernels_vectorized.cc", "src/linalg/kernels_backend.cc"}) {
    const auto diags = LintFile(rel, ReadFileOrDie(SourcePath(rel)));
    EXPECT_TRUE(diags.empty())
        << rel << ": " << FormatDiagnostic(diags.front());
  }
  const std::string code =
      ReadFileOrDie(SourcePath("tests/lint_fixtures/bad_intrinsics.cc"));
  EXPECT_TRUE(LintFile("src/linalg/kernels_avx512.cc", code).empty());
}

TEST(LintWhitelistTest, IntrinsicsFireOutsideKernelBackendFiles) {
  const std::string code =
      ReadFileOrDie(SourcePath("tests/lint_fixtures/bad_intrinsics.cc"));
  // The rule holds everywhere else — including linalg/kernels.cc itself,
  // which is the dispatching facade, not a backend.
  for (const std::string rel :
       {"src/linalg/kernels.cc", "src/embed/sgns.cc",
        "bench/perf_dense_kernels.cc", "tests/ml_test.cc"}) {
    const auto diags = LintFile(rel, code);
    ASSERT_EQ(diags.size(), 6u) << rel;
    for (const auto& d : diags) EXPECT_EQ(d.rule, "intrinsics") << rel;
  }
}

TEST(LintSuppressionTest, AllowIntrinsicsSilencesTheLine) {
  const std::string code =
      "int F() { return __builtin_cpu_supports(\"avx2\"); }"
      "  // x2vec-lint: allow(intrinsics)\n";
  EXPECT_TRUE(LintFile("src/embed/sgns.cc", code).empty());
}

// -- Digit separators (string-blanking regression) ----------------------------

TEST(LintStripTest, DigitSeparatorsDoNotOpenCharLiterals) {
  const std::string code =
      "const long long n = 10'000'000; srand(1);\n"
      "const unsigned h = 0x1F'2A; srand(2);\n";
  const std::string stripped = StripCommentsAndStrings(code);
  // The separators must not flip the state machine into char-literal
  // state: the srand calls stay visible.
  EXPECT_NE(stripped.find("srand(1)"), std::string::npos);
  EXPECT_NE(stripped.find("srand(2)"), std::string::npos);
}

TEST(LintStripTest, RealCharLiteralsAreStillBlanked) {
  const std::string code =
      "const char c = 'a'; const wchar_t w = L'b';\n"
      "const char8_t u = u8'c';\n";
  const std::string stripped = StripCommentsAndStrings(code);
  EXPECT_EQ(stripped.find("'a'"), std::string::npos);
  EXPECT_EQ(stripped.find("'b'"), std::string::npos);
  EXPECT_EQ(stripped.find("'c'"), std::string::npos);
}

TEST(LintRuleTest, DigitSeparatorFixtureFindingsAreNotHidden) {
  // Before the fix, the ' in 10'000'000 swallowed the rest of the file
  // into char-literal state and the planted srand() calls went unreported.
  const auto diags = LintFixture("digit_separators.cc");
  ASSERT_EQ(diags.size(), 3u);
  for (const auto& d : diags) {
    EXPECT_EQ(d.rule, "nondeterminism") << FormatDiagnostic(d);
  }
  EXPECT_EQ(diags[0].line, 10);
  EXPECT_EQ(diags[1].line, 13);
  EXPECT_EQ(diags[2].line, 18);
}

// -- Rule: statusor-deref -----------------------------------------------------

TEST(LintRuleTest, UncheckedStatusOrDerefIsReported) {
  const auto diags = LintFixture("bad_statusor_deref.cc");
  ASSERT_EQ(diags.size(), 2u);
  for (const auto& d : diags) {
    EXPECT_EQ(d.rule, "statusor-deref") << FormatDiagnostic(d);
    EXPECT_NE(d.message.find("ok()"), std::string::npos);
  }
  EXPECT_EQ(diags[0].line, 12);  // parsed.value() with no check
  EXPECT_EQ(diags[1].line, 17);  // *parsed with no check
}

TEST(LintRuleTest, CheckedStatusOrDerefIsClean) {
  const std::string code =
      "StatusOr<int> Get();\n"
      "int F() {\n"
      "  StatusOr<int> v = Get();\n"
      "  if (!v.ok()) return -1;\n"
      "  return *v;\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/base/x.cc", code).empty());
}

TEST(LintRuleTest, StatusOrCheckInOuterScopeStillCounts) {
  // status() propagation is also a check: returning early on !ok() via
  // status() is the canonical pattern.
  const std::string code =
      "int F() {\n"
      "  StatusOr<int> v = Get();\n"
      "  if (!v.ok()) return Fail(v.status());\n"
      "  return v.value();\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/base/x.cc", code).empty());
}

TEST(LintSuppressionTest, AllowStatusOrDerefSilencesTheLine) {
  EXPECT_TRUE(LintFixture("good_statusor_allow.cc").empty());
}

// -- Rule: budget-gate --------------------------------------------------------

TEST(LintRuleTest, RawBudgetInParallelBodyFiresInHotModules) {
  const std::string code =
      ReadFileOrDie(SourcePath("tests/lint_fixtures/bad_budget_gate.cc"));
  for (const std::string rel :
       {"src/embed/sgns.cc", "src/kernel/graph_kernels.cc",
        "src/wl/color_refinement.cc", "src/hom/embeddings.cc"}) {
    const auto diags = LintFile(rel, code);
    ASSERT_EQ(diags.size(), 1u) << rel;
    EXPECT_EQ(diags[0].rule, "budget-gate") << FormatDiagnostic(diags[0]);
    EXPECT_NE(diags[0].message.find("BudgetGate"), std::string::npos);
  }
}

TEST(LintRuleTest, DeadlineAndKernelLoopsCountAsParallelBodies) {
  // ParallelForUntilDeadline and the kernel module's ForEachGraph and
  // FillGram run their lambdas on pool workers as ParallelFor does.
  for (const std::string call :
       {"ParallelForUntilDeadline(n, 0, budget, \"op\", ",
        "internal::ForEachGraph(n, budget, \"op\", ",
        "internal::FillGram(n, budget, \"op\", "}) {
    const std::string charged = "Status F(int n, Budget& budget) {\n  return " +
                                call +
                                "[&](int i) {\n    (void)budget.Spend(1);\n"
                                "    return 0.0;\n  });\n}\n";
    const auto gate = LintFile("src/kernel/graph_kernels_extra.cc", charged);
    ASSERT_EQ(gate.size(), 1u) << call;
    EXPECT_EQ(gate[0].rule, "budget-gate") << call;
    const std::string drawn = "Status F(int n, Budget& budget, Rng& rng) {\n"
                              "  return " +
                              call +
                              "[&](int i) {\n    return rng.Uniform();\n"
                              "  });\n}\n";
    const auto fork = LintFile("src/kernel/graph_kernels_extra.cc", drawn);
    ASSERT_EQ(fork.size(), 1u) << call;
    EXPECT_EQ(fork[0].rule, "rng-fork") << call;
  }
}

TEST(LintWhitelistTest, RawBudgetInParallelBodyIsLegalOutsideHotModules) {
  EXPECT_TRUE(LintFixture("bad_budget_gate.cc").empty());
  const std::string code =
      ReadFileOrDie(SourcePath("tests/lint_fixtures/bad_budget_gate.cc"));
  EXPECT_TRUE(LintFile("src/base/parallel_extra.cc", code).empty());
}

TEST(LintRuleTest, BudgetGatePatternAndAllowMarkerAreClean) {
  const std::string code =
      ReadFileOrDie(SourcePath("tests/lint_fixtures/good_budget_gate.cc"));
  EXPECT_TRUE(LintFile("src/embed/sgns_extra.cc", code).empty());
}

// -- Whole-program: include-cycle ---------------------------------------------

std::vector<SourceFile> FixtureSources(
    const std::vector<std::pair<std::string, std::string>>& name_as) {
  // Reads fixtures from disk, analyzing each under the given path (the
  // analysis is path-sensitive: layering depends on the module).
  std::vector<SourceFile> files;
  for (const auto& [name, as] : name_as) {
    files.push_back(
        {as, ReadFileOrDie(SourcePath("tests/lint_fixtures/" + name))});
  }
  return files;
}

TEST(LintAnalysisTest, PlantedIncludeCycleIsCaughtByName) {
  const auto files = FixtureSources(
      {{"cycle_a.h", "tests/lint_fixtures/cycle_a.h"},
       {"cycle_b.h", "tests/lint_fixtures/cycle_b.h"}});
  const auto diags = AnalyzeProgram(files, nullptr);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "include-cycle");
  EXPECT_NE(diags[0].message.find("cycle_a.h"), std::string::npos);
  EXPECT_NE(diags[0].message.find("cycle_b.h"), std::string::npos);
}

TEST(LintAnalysisTest, AllowSuppressesIncludeCycle) {
  const auto files = FixtureSources(
      {{"cycle_allow_a.h", "tests/lint_fixtures/cycle_allow_a.h"},
       {"cycle_allow_b.h", "tests/lint_fixtures/cycle_allow_b.h"}});
  EXPECT_TRUE(AnalyzeProgram(files, nullptr).empty());
}

// -- Whole-program: layering --------------------------------------------------

Layering RepoLayering() {
  Layering layering;
  std::string error;
  EXPECT_TRUE(ParseLayering(ReadFileOrDie(SourcePath("tools/lint/layers.txt")),
                            &layering, &error))
      << error;
  return layering;
}

TEST(LintAnalysisTest, LayeringParsesTheCheckedInDeclaration) {
  const Layering layering = RepoLayering();
  ASSERT_GE(layering.layers.size(), 6u);
  EXPECT_EQ(layering.layer_of.at("base"), 0);
  EXPECT_LT(layering.layer_of.at("core"), layering.layer_of.at("embed"));
  EXPECT_LT(layering.layer_of.at("data"), layering.layer_of.at("kg"));
  EXPECT_EQ(layering.layer_of.at("api"), layering.layer_of.at("tools"));
}

TEST(LintAnalysisTest, PlantedLayeringViolationIsCaughtByName) {
  auto files = FixtureSources(
      {{"bad_layering.cc", "src/base/bad_layering.cc"}});
  files.push_back({"src/embed/planted.h", "#pragma once\n"});
  const Layering layering = RepoLayering();
  const auto diags = AnalyzeProgram(files, &layering);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "layering");
  EXPECT_EQ(diags[0].file, "src/base/bad_layering.cc");
  EXPECT_NE(diags[0].message.find("'base'"), std::string::npos);
  EXPECT_NE(diags[0].message.find("'embed'"), std::string::npos);
}

TEST(LintAnalysisTest, AllowSuppressesLayeringViolation) {
  auto files = FixtureSources(
      {{"good_layering_allow.cc", "src/base/good_layering_allow.cc"}});
  files.push_back({"src/embed/planted.h", "#pragma once\n"});
  const Layering layering = RepoLayering();
  EXPECT_TRUE(AnalyzeProgram(files, &layering).empty());
}

TEST(LintAnalysisTest, SameLayerIncludesAreLegal) {
  std::vector<SourceFile> files = {
      {"src/hom/uses_wl.cc", "#include \"wl/colors.h\"\n"},
      {"src/wl/colors.h", "#pragma once\n"},
  };
  const Layering layering = RepoLayering();
  EXPECT_TRUE(AnalyzeProgram(files, &layering).empty());
}

TEST(LintAnalysisTest, UndeclaredModuleIsReported) {
  std::vector<SourceFile> files = {
      {"src/newmod/thing.cc", "#include \"base/planted.h\"\n"},
      {"src/base/planted.h", "#pragma once\n"},
  };
  const Layering layering = RepoLayering();
  const auto diags = AnalyzeProgram(files, &layering);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "layering");
  EXPECT_NE(diags[0].message.find("'newmod'"), std::string::npos);
  EXPECT_NE(diags[0].message.find("not declared"), std::string::npos);
}

TEST(LintAnalysisTest, ModuleOfClassifiesPaths) {
  EXPECT_EQ(ModuleOf("src/embed/sgns.cc"), "embed");
  EXPECT_EQ(ModuleOf("/abs/repo/src/base/rng.h"), "base");
  EXPECT_EQ(ModuleOf("tools/lint/lint.cc"), "tools");
  EXPECT_EQ(ModuleOf("tests/lint_test.cc"), "tests");
  EXPECT_EQ(ModuleOf("bench/tab_word2vec.cc"), "bench");
  EXPECT_EQ(ModuleOf("examples/quickstart.cpp"), "examples");
  EXPECT_EQ(ModuleOf("README.md"), "");
}

TEST(LintAnalysisTest, DuplicateLayerDeclarationIsAnError) {
  Layering layering;
  std::string error;
  EXPECT_FALSE(ParseLayering("base\nlinalg base\n", &layering, &error));
  EXPECT_NE(error.find("two layers"), std::string::npos);
}

TEST(LintAnalysisTest, DepsJsonNamesModulesAndLayers) {
  std::vector<SourceFile> files = {
      {"src/wl/refine.cc", "#include \"graph/graph.h\"\n"},
      {"src/graph/graph.h", "#pragma once\n"},
  };
  const IncludeGraph graph = BuildIncludeGraph(files);
  const std::string json = DepsJson(graph, RepoLayering());
  EXPECT_NE(json.find("\"wl\": {\"layer\": 3, \"deps\": [\"graph\"]}"),
            std::string::npos)
      << json;
}

// -- Whole-program: metric-name -----------------------------------------------

TEST(LintAnalysisTest, MetricKindConflictAndTypoAreCaught) {
  const auto files = FixtureSources(
      {{"bad_metric_kind.cc", "tests/lint_fixtures/bad_metric_kind.cc"}});
  const auto diags = AnalyzeProgram(files, nullptr);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, "metric-name");
  EXPECT_EQ(diags[1].rule, "metric-name");
  // One finding is the counter/gauge collision, the other the 1-edit typo.
  const std::string all = diags[0].message + " | " + diags[1].message;
  EXPECT_NE(all.find("registered as"), std::string::npos) << all;
  EXPECT_NE(all.find("one edit away"), std::string::npos) << all;
}

TEST(LintAnalysisTest, AllowSuppressesMetricFindings) {
  const auto files = FixtureSources(
      {{"good_metric_allow.cc", "tests/lint_fixtures/good_metric_allow.cc"}});
  EXPECT_TRUE(AnalyzeProgram(files, nullptr).empty());
}

TEST(LintAnalysisTest, MultiLineMetricCallSitesAreCollected) {
  const std::string code =
      "void F() {\n"
      "  X2VEC_METRIC_COUNT(\n"
      "      \"split.across.lines\", 1);\n"
      "}\n";
  const auto uses = CollectMetricUses({{"src/base/x.cc", code}});
  ASSERT_EQ(uses.size(), 1u);
  EXPECT_EQ(uses[0].name, "split.across.lines");
  EXPECT_EQ(uses[0].kind, "counter");
  EXPECT_EQ(uses[0].line, 2);  // attributed to the macro, not the literal
}

TEST(LintAnalysisTest, MetricsMarkdownListsEveryName) {
  const auto files = FixtureSources(
      {{"bad_metric_kind.cc", "tests/lint_fixtures/bad_metric_kind.cc"}});
  const std::string md = MetricsMarkdown(CollectMetricUses(files));
  EXPECT_NE(md.find("| `fixture.collide` | counter |"), std::string::npos)
      << md;
  EXPECT_NE(md.find("fixture.walks.steps"), std::string::npos);
}

// -- Baseline -----------------------------------------------------------------

TEST(LintBaselineTest, BaselineRoundTripSuppressesPerFilePerRule) {
  const std::vector<Diagnostic> diags = {
      {"src/a.cc", 3, "statusor-deref", "unchecked"},
      {"src/a.cc", 9, "statusor-deref", "unchecked again"},
      {"src/a.cc", 12, "budget-gate", "raw budget"},
      {"src/b.cc", 1, "statusor-deref", "unchecked"},
  };
  Baseline baseline;
  std::string error;
  ASSERT_TRUE(ParseBaseline(BaselineText(diags), &baseline, &error)) << error;
  EXPECT_EQ(baseline.size(), 3u);  // (a, statusor), (a, budget), (b, statusor)

  // A baseline entry suppresses exactly its (file, rule) pair — both
  // statusor findings in a.cc, but not the budget-gate one and not b.cc.
  Baseline partial;
  ASSERT_TRUE(
      ParseBaseline("src/a.cc: statusor-deref\n", &partial, &error));
  int baselined = 0;
  const auto remaining = ApplyBaseline(diags, partial, &baselined);
  EXPECT_EQ(baselined, 2);
  ASSERT_EQ(remaining.size(), 2u);
  EXPECT_EQ(remaining[0].rule, "budget-gate");
  EXPECT_EQ(remaining[1].file, "src/b.cc");
}

TEST(LintBaselineTest, MalformedBaselineLineIsAnError) {
  Baseline baseline;
  std::string error;
  EXPECT_FALSE(ParseBaseline("not a baseline line\n", &baseline, &error));
  EXPECT_NE(error.find("expected"), std::string::npos);
  // Comments and blanks are fine.
  EXPECT_TRUE(ParseBaseline("# header\n\nsrc/a.cc: chrono\n", &baseline,
                            &error));
  EXPECT_EQ(baseline.size(), 1u);
}

TEST(LintTreeTest, WholeTreeAnalyzesClean) {
  // The whole-program analogue of WholeTreeIsClean: the include graph of
  // src/, tests/, bench/ and tools/ must be acyclic, respect the declared
  // layering, and carry a collision-free metric registry — with zero
  // unsuppressed findings.
  const auto paths = CollectFiles(
      {SourcePath("src"), SourcePath("tests"), SourcePath("bench"),
       SourcePath("tools")},
      /*include_fixtures=*/false);
  std::vector<SourceFile> files;
  for (const auto& p : paths) files.push_back({p, ReadFileOrDie(p)});
  const Layering layering = RepoLayering();
  for (const auto& d : AnalyzeProgram(files, &layering)) {
    ADD_FAILURE() << FormatDiagnostic(d);
  }
}

TEST(LintTreeTest, WholeTreeIsClean) {
  // The in-tree mirror of the `x2vec_lint_tree` ctest: src/, tests/ and
  // bench/ must lint clean with fixtures excluded.
  const auto files = CollectFiles(
      {SourcePath("src"), SourcePath("tests"), SourcePath("bench")},
      /*include_fixtures=*/false);
  EXPECT_GT(files.size(), 100u);
  std::vector<Diagnostic> all;
  for (const auto& f : files) {
    const auto diags = LintFile(f, ReadFileOrDie(f));
    all.insert(all.end(), diags.begin(), diags.end());
  }
  for (const auto& d : all) ADD_FAILURE() << FormatDiagnostic(d);
}

}  // namespace
}  // namespace x2vec::lint
