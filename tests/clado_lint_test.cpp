// Feeds synthetic source snippets through clado_lint's rule engine via the
// binary's --stdin fixture mode and asserts each rule fires on a violating
// snippet and stays quiet on a conforming one, including suppressions.
//
// The binary path comes from CMake as CLADO_LINT_BIN; the repo root (for the
// end-to-end self-check) as CLADO_LINT_SOURCE_ROOT.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include <sys/wait.h>

namespace {

struct LintResult {
  int exit_code = -1;
  std::string output;

  bool flags(const std::string& rule) const {
    return output.find(" " + rule + " ") != std::string::npos;
  }
};

// Runs `clado_lint --stdin <virtual_path> [extra_args]` with `source` on
// stdin (extra_args: e.g. "--format=json").
LintResult run_lint(const std::string& virtual_path, const std::string& source,
                    const std::string& extra_args = "") {
  const std::string snippet_path = std::string(::testing::TempDir()) + "clado_lint_snippet.cpp";
  {
    std::ofstream out(snippet_path, std::ios::trunc | std::ios::binary);
    out << source;
  }
  const std::string cmd = std::string(CLADO_LINT_BIN) + " --stdin '" + virtual_path + "' " +
                          extra_args + " < '" + snippet_path + "' 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
  LintResult result;
  if (pipe == nullptr) return result;
  std::array<char, 4096> buf{};
  std::size_t got = 0;
  while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    result.output.append(buf.data(), got);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

TEST(CladoLintTest, CleanSnippetPasses) {
  const LintResult r = run_lint("src/tensor/example.cpp",
                                "#include \"clado/tensor/tensor.h\"\n"
                                "namespace clado::tensor {\n"
                                "int add(int a, int b) { return a + b; }\n"
                                "}  // namespace clado::tensor\n");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST(CladoLintTest, PragmaOnceFiresOnHeaderWithoutIt) {
  const LintResult r = run_lint("src/tensor/include/clado/tensor/example.h",
                                "namespace clado::tensor {}\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.flags("pragma-once")) << r.output;
}

TEST(CladoLintTest, PragmaOncePassesWhenPresent) {
  const LintResult r = run_lint("src/tensor/include/clado/tensor/example.h",
                                "#pragma once\nnamespace clado::tensor {}\n");
  EXPECT_FALSE(r.flags("pragma-once")) << r.output;
}

TEST(CladoLintTest, DirNamespaceFiresOnForeignNamespace) {
  const LintResult r =
      run_lint("src/tensor/example.cpp", "namespace clado::quant {\nint x;\n}\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.flags("dir-namespace")) << r.output;
}

TEST(CladoLintTest, DirNamespaceAllowsOwnAnonymousAndUsing) {
  const LintResult r = run_lint("src/quant/example.cpp",
                                "namespace clado::quant {\n"
                                "namespace {\nint helper;\n}\n"
                                "using namespace clado::tensor;\n"
                                "}\n");
  EXPECT_FALSE(r.flags("dir-namespace")) << r.output;
}

TEST(CladoLintTest, NoRandFiresOnRandAndSrand) {
  const LintResult r = run_lint("src/data/example.cpp",
                                "#include <cstdlib>\n"
                                "int f() { srand(42); return rand(); }\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.flags("no-rand")) << r.output;
}

TEST(CladoLintTest, NoRandIgnoresSubstringsCommentsAndStrings) {
  const LintResult r = run_lint("src/data/example.cpp",
                                "int strand(int x);\n"
                                "int operand(int x);\n"
                                "// rand() in a comment\n"
                                "const char* s = \"rand()\";\n"
                                "int g() { return strand(1) + operand(2); }\n");
  EXPECT_FALSE(r.flags("no-rand")) << r.output;
}

TEST(CladoLintTest, NoAtoiFiresOnEveryUnreportingParserInEveryDir) {
  for (const char* path : {"tools/example.cpp", "tests/example_test.cpp"}) {
    const LintResult r = run_lint(path,
                                  "#include <cstdlib>\n"
                                  "long f(const char* s) {\n"
                                  "  return std::atoi(s) + atol(s) + std::atoll(s) +\n"
                                  "         static_cast<long>(atof(s)) + strtoll(s, 0, 10);\n"
                                  "}\n");
    EXPECT_EQ(r.exit_code, 1) << path;
    for (const char* call : {"atoi()", "atol()", "atoll()", "atof()"}) {
      EXPECT_NE(r.output.find(std::string(call) + " cannot report"), std::string::npos)
          << path << ": " << r.output;
    }
    EXPECT_EQ(r.output.find("strtoll"), std::string::npos) << r.output;
  }
}

TEST(CladoLintTest, NoAtoiSuppressionHolds) {
  const LintResult r = run_lint(
      "bench/example.cpp",
      "#include <cstdlib>\n"
      "// clado-lint: allow(no-atoi) -- fixture input is a compile-time literal\n"
      "int f() { return std::atoi(\"42\"); }\n");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(CladoLintTest, NoRandomDeviceFiresOutsideTests) {
  const LintResult r = run_lint("src/data/example.cpp",
                                "#include <random>\nstd::random_device rd;\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.flags("no-random-device")) << r.output;
}

TEST(CladoLintTest, NoRandomDeviceAllowedInTests) {
  const LintResult r = run_lint("tests/example_test.cpp",
                                "#include <random>\nstd::random_device rd;\n");
  EXPECT_FALSE(r.flags("no-random-device")) << r.output;
}

TEST(CladoLintTest, NoStdioFiresInLibraryCode) {
  const LintResult r = run_lint("src/core/example.cpp",
                                "#include <cstdio>\n#include <iostream>\n"
                                "void f() { printf(\"x\"); std::cout << 1; }\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.flags("no-stdio")) << r.output;
}

TEST(CladoLintTest, NoStdioAllowsSnprintfAndNonSrcDirs) {
  const LintResult in_src = run_lint("src/core/example.cpp",
                                     "#include <cstdio>\n"
                                     "void f(char* b) { snprintf(b, 4, \"x\"); }\n");
  EXPECT_FALSE(in_src.flags("no-stdio")) << in_src.output;
  const LintResult in_bench = run_lint("bench/example.cpp",
                                       "#include <cstdio>\nvoid f() { printf(\"x\"); }\n");
  EXPECT_FALSE(in_bench.flags("no-stdio")) << in_bench.output;
}

TEST(CladoLintTest, NoNakedNewFiresOnNewAndDelete) {
  const LintResult r = run_lint("src/nn/example.cpp",
                                "struct T {};\n"
                                "T* make() { return new T(); }\n"
                                "void drop(T* t) { delete t; }\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.flags("no-naked-new")) << r.output;
}

TEST(CladoLintTest, NoNakedNewAllowsDeletedMembersAndIdentifiers) {
  const LintResult r = run_lint("src/nn/example.cpp",
                                "struct T {\n"
                                "  T(const T&) = delete;\n"
                                "  T& operator=(const T&) =delete;\n"
                                "};\n"
                                "int new_shape = 3;\n");
  EXPECT_FALSE(r.flags("no-naked-new")) << r.output;
}

TEST(CladoLintTest, NoThreadLocalFiresInSrc) {
  const LintResult r = run_lint("src/tensor/example.cpp",
                                "static thread_local int scratch = 0;\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.flags("no-thread-local")) << r.output;
}

TEST(CladoLintTest, MissingOverrideFiresOnRedeclaredVirtual) {
  const LintResult r = run_lint("src/nn/example.h",
                                "#pragma once\n"
                                "namespace clado::nn {\n"
                                "class Base {\n"
                                " public:\n"
                                "  virtual ~Base() = default;\n"
                                "  virtual int forward(int x);\n"
                                "};\n"
                                "class Derived : public Base {\n"
                                " public:\n"
                                "  int forward(int x);\n"
                                "};\n"
                                "}\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.flags("missing-override")) << r.output;
}

TEST(CladoLintTest, MissingOverridePassesWithOverrideAndOnCalls) {
  const LintResult r = run_lint("src/nn/example.h",
                                "#pragma once\n"
                                "namespace clado::nn {\n"
                                "class Base {\n"
                                " public:\n"
                                "  virtual ~Base() = default;\n"
                                "  virtual int forward(int x);\n"
                                "};\n"
                                "class Derived : public Base {\n"
                                " public:\n"
                                "  int forward(int x) override;\n"
                                "  int twice(int x) { return forward(x) + forward(x); }\n"
                                "};\n"
                                "}\n");
  EXPECT_FALSE(r.flags("missing-override")) << r.output;
}

TEST(CladoLintTest, MissingIncludeFiresOnForeignSubsystemUse) {
  const LintResult r = run_lint("src/nn/example.cpp",
                                "namespace clado::nn {\n"
                                "int f() { return clado::tensor::some_fn(); }\n"
                                "}\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.flags("missing-include")) << r.output;
}

TEST(CladoLintTest, MissingIncludePassesWithDirectInclude) {
  const LintResult r = run_lint("src/nn/example.cpp",
                                "#include \"clado/tensor/ops.h\"\n"
                                "namespace clado::nn {\n"
                                "int f() { return clado::tensor::some_fn(); }\n"
                                "}\n");
  EXPECT_FALSE(r.flags("missing-include")) << r.output;
}

TEST(CladoLintTest, SuppressionWithJustificationHolds) {
  const LintResult same_line = run_lint(
      "src/core/example.cpp",
      "void f() { printf(\"x\"); }  // clado-lint: allow(no-stdio) -- demo sink\n");
  EXPECT_EQ(same_line.exit_code, 0) << same_line.output;
  const LintResult prev_line = run_lint("src/core/example.cpp",
                                        "// clado-lint: allow(no-stdio) -- demo sink\n"
                                        "void f() { printf(\"x\"); }\n");
  EXPECT_EQ(prev_line.exit_code, 0) << prev_line.output;
}

TEST(CladoLintTest, SuppressionOnlyCoversItsRule) {
  const LintResult r = run_lint(
      "src/core/example.cpp",
      "// clado-lint: allow(no-rand) -- wrong rule for this violation\n"
      "void f() { printf(\"x\"); }\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.flags("no-stdio")) << r.output;
}

TEST(CladoLintTest, SuppressionWithoutJustificationIsRejected) {
  const LintResult r = run_lint(
      "src/core/example.cpp",
      "void f() { printf(\"x\"); }  // clado-lint: allow(no-stdio)\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.flags("bad-suppression")) << r.output;
}

TEST(CladoLintTest, SuppressionOfUnknownRuleIsRejected) {
  const LintResult r = run_lint(
      "src/core/example.cpp",
      "int x;  // clado-lint: allow(no-such-rule) -- justification present\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.flags("bad-suppression")) << r.output;
}

TEST(CladoLintTest, DiagnosticFormatIsFileLineRule) {
  const LintResult r = run_lint("src/tensor/example.cpp",
                                "int a;\nint b;\nvoid f() { printf(\"x\"); }\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("src/tensor/example.cpp:3: no-stdio"), std::string::npos) << r.output;
}

// ---- lock-discipline -------------------------------------------------------

// A ThreadPool-shaped fixture: annotated queue, one locked accessor, one
// unlocked accessor. Deleting the lock_guard (the unlocked `broken` method
// here IS that deletion) must produce a lock-discipline diagnostic — the
// acceptance spot-check for annotated classes.
const char* kLockFixtureHeader =
    "#pragma once\n"
    "#include <deque>\n"
    "#include <mutex>\n"
    "#define CLADO_GUARDED_BY(m)\n"
    "#define CLADO_REQUIRES(m)\n"
    "namespace clado::tensor {\n"
    "class Pool {\n"
    " public:\n"
    "  Pool() { queue_.clear(); }\n"  // ctor-exempt write
    "  void push(int t) {\n"
    "    std::lock_guard<std::mutex> lock(mutex_);\n"
    "    queue_.push_back(t);\n"
    "  }\n"
    "  void drain_locked() CLADO_REQUIRES(mutex_) { queue_.clear(); }\n"
    "%s"
    " private:\n"
    "  std::mutex mutex_;\n"
    "  std::deque<int> queue_ CLADO_GUARDED_BY(mutex_);\n"
    "};\n"
    "}  // namespace clado::tensor\n";

std::string lock_fixture(const std::string& extra_member) {
  std::string out = kLockFixtureHeader;
  out.replace(out.find("%s"), 2, extra_member);
  return out;
}

TEST(CladoLintTest, LockDisciplineFiresOnUnlockedAccess) {
  const LintResult r = run_lint(
      "src/tensor/include/clado/tensor/pool.h",
      lock_fixture("  bool broken() { return queue_.empty(); }\n"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.flags("lock-discipline")) << r.output;
}

TEST(CladoLintTest, LockDisciplinePassesLockedRequiresAndCtor) {
  const LintResult r = run_lint("src/tensor/include/clado/tensor/pool.h", lock_fixture(""));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(CladoLintTest, LockDisciplineFiresAfterDeletingALockGuard) {
  // Same class, but push() lost its lock_guard: the previously-clean
  // fixture must now flag — deleting a lock from an annotated class is
  // exactly the regression the rule exists to catch.
  std::string source = lock_fixture("");
  const std::string guard = "    std::lock_guard<std::mutex> lock(mutex_);\n";
  const auto at = source.find(guard);
  ASSERT_NE(at, std::string::npos);
  source.erase(at, guard.size());
  const LintResult r = run_lint("src/tensor/include/clado/tensor/pool.h", source);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.flags("lock-discipline")) << r.output;
}

TEST(CladoLintTest, LockDisciplineWrongMutexDoesNotCover) {
  const LintResult r = run_lint(
      "src/tensor/include/clado/tensor/pool.h",
      lock_fixture("  std::mutex other_;\n"
                   "  bool wrong() {\n"
                   "    std::lock_guard<std::mutex> lock(other_);\n"
                   "    return queue_.empty();\n"
                   "  }\n"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.flags("lock-discipline")) << r.output;
}

TEST(CladoLintTest, LockDisciplineSuppressionHolds) {
  const LintResult r = run_lint(
      "src/tensor/include/clado/tensor/pool.h",
      lock_fixture("  // clado-lint: allow(lock-discipline) -- single-threaded test hook\n"
                   "  bool racy() { return queue_.empty(); }\n"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(CladoLintTest, LockDisciplineIgnoresOtherClassesSameFieldName) {
  // A different class with a member of the same NAME but no annotation must
  // not be flagged (the rule matches on the owning class, not bare names).
  const LintResult r = run_lint(
      "src/tensor/include/clado/tensor/pool.h",
      lock_fixture("") +
          "namespace clado::tensor {\n"
          "class Other {\n"
          " public:\n"
          "  bool fine() { return queue_.empty(); }\n"
          " private:\n"
          "  std::deque<int> queue_;\n"
          "};\n"
          "}  // namespace clado::tensor\n");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// ---- env-discipline --------------------------------------------------------

TEST(CladoLintTest, EnvDisciplineFiresOnRawGetenvInSrc) {
  const LintResult r = run_lint("src/nn/example.cpp",
                                "#include <cstdlib>\n"
                                "namespace clado::nn {\n"
                                "bool traced() { return std::getenv(\"CLADO_TRACE\") != nullptr; }\n"
                                "}\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.flags("env-discipline")) << r.output;
}

TEST(CladoLintTest, EnvDisciplinePassesOnStrictHelpers) {
  const LintResult r = run_lint(
      "src/nn/example.cpp",
      "#include \"clado/tensor/env.h\"\n"
      "namespace clado::nn {\n"
      "int threads() {\n"
      "  return static_cast<int>(\n"
      "      clado::tensor::env_int_strict(\"CLADO_NUM_THREADS\", 1, 64).value_or(1));\n"
      "}\n"
      "}\n");
  EXPECT_FALSE(r.flags("env-discipline")) << r.output;
}

TEST(CladoLintTest, EnvDisciplineAllowsGetenvOutsideSrcAndTools) {
  const LintResult r = run_lint("bench/example.cpp",
                                "#include <cstdlib>\n"
                                "bool traced() { return std::getenv(\"CLADO_TRACE\") != nullptr; }\n");
  EXPECT_FALSE(r.flags("env-discipline")) << r.output;
}

TEST(CladoLintTest, EnvDisciplineSuppressionHolds) {
  const LintResult r = run_lint(
      "src/nn/example.cpp",
      "#include <cstdlib>\n"
      "namespace clado::nn {\n"
      "// clado-lint: allow(env-discipline) -- layering test double\n"
      "bool traced() { return std::getenv(\"CLADO_TRACE\") != nullptr; }\n"
      "}\n");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// ---- simd-hygiene ----------------------------------------------------------

TEST(CladoLintTest, SimdHygieneFiresOutsideKernelTus) {
  const LintResult r = run_lint("src/nn/example.cpp",
                                "#include <immintrin.h>\n"
                                "namespace clado::nn {\n"
                                "void zero(float* p) { _mm256_storeu_ps(p, _mm256_setzero_ps()); }\n"
                                "}\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.flags("simd-hygiene")) << r.output;
}

TEST(CladoLintTest, SimdHygienePassesInAvx2KernelTu) {
  const LintResult r = run_lint(
      "src/tensor/kernels/example_avx2.cpp",
      "#include <immintrin.h>\n"
      "namespace clado::tensor {\n"
      "void zero(float* p) { _mm256_storeu_ps(p, _mm256_setzero_ps()); }\n"
      "}\n");
  EXPECT_FALSE(r.flags("simd-hygiene")) << r.output;
}

TEST(CladoLintTest, SimdHygieneFiresOnAvx512InAvx2KernelTu) {
  // The kernel TUs are compiled with exactly -mavx2 -mfma; AVX-512 tokens
  // there are either a compile break or an untested macro-guarded path.
  const LintResult r = run_lint(
      "src/tensor/kernels/example_avx2.cpp",
      "#include <immintrin.h>\n"
      "namespace clado::tensor {\n"
      "void zero(float* p) { _mm512_storeu_ps(p, _mm512_setzero_ps()); }\n"
      "}\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.flags("simd-hygiene")) << r.output;
}

TEST(CladoLintTest, SimdHygieneFiresOnAvx512MaskTypeInAvx2KernelTu) {
  const LintResult r = run_lint(
      "src/tensor/kernels/example_avx2.cpp",
      "#include <immintrin.h>\n"
      "namespace clado::tensor {\n"
      "int lanes(__mmask16 m) { return static_cast<int>(m); }\n"
      "}\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.flags("simd-hygiene")) << r.output;
}

TEST(CladoLintTest, SimdHygieneAllowsAvx2IntrinsicsInAvx2KernelTu) {
  const LintResult r = run_lint(
      "src/tensor/kernels/example_avx2.cpp",
      "#include <immintrin.h>\n"
      "namespace clado::tensor {\n"
      "int sum(__m256i v) { return _mm256_extract_epi32(_mm256_abs_epi32(v), 0); }\n"
      "}\n");
  EXPECT_FALSE(r.flags("simd-hygiene")) << r.output;
}

TEST(CladoLintTest, SimdHygieneIgnoresIntrinsicNamesInCommentsAndStrings) {
  const LintResult r = run_lint(
      "src/nn/example.cpp",
      "// _mm256_fmadd_ps is discussed here but never called\n"
      "namespace clado::nn {\n"
      "const char* kDoc = \"uses _mm256_fmadd_ps internally\";\n"
      "}\n");
  EXPECT_FALSE(r.flags("simd-hygiene")) << r.output;
}

TEST(CladoLintTest, SimdHygieneSuppressionHolds) {
  const LintResult r = run_lint(
      "src/nn/example.cpp",
      "namespace clado::nn {\n"
      "// clado-lint: allow(simd-hygiene) -- feature-detection constant only\n"
      "int probe() { return _MM_HINT_T0; }\n"
      "}\n");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// ---- trailing suppression on multi-line statements -------------------------

TEST(CladoLintTest, TrailingSuppressionCoversMultiLineStatement) {
  // The violation is on the printf line; the allow sits three lines later on
  // the statement's closing line. Token-aware extension must connect them.
  const LintResult r = run_lint(
      "src/core/example.cpp",
      "#include <cstdio>\n"
      "void f() {\n"
      "  printf(\"%d %d %d\",\n"
      "         1,\n"
      "         2,\n"
      "         3);  // clado-lint: allow(no-stdio) -- progress output is intentional\n"
      "}\n");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(CladoLintTest, TrailingSuppressionDoesNotLeakPastStatementEnd) {
  // The allow trails the FIRST statement; the second violation on the next
  // statement must still flag.
  const LintResult r = run_lint(
      "src/core/example.cpp",
      "#include <cstdio>\n"
      "void f() {\n"
      "  printf(\"%d\",\n"
      "         1);  // clado-lint: allow(no-stdio) -- first call only\n"
      "  printf(\"second\");\n"
      "}\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.flags("no-stdio")) << r.output;
}

// ---- --format --------------------------------------------------------------

TEST(CladoLintTest, FormatJsonEmitsStructuredDiagnostics) {
  const LintResult r = run_lint("src/core/example.cpp",
                                "void f() { printf(\"x\"); }\n", "--format=json");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("\"rule\":\"no-stdio\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"file\":\"src/core/example.cpp\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"line\":1"), std::string::npos) << r.output;
}

TEST(CladoLintTest, FormatJsonEmitsEmptyArrayWhenClean) {
  const LintResult r = run_lint("src/core/example.cpp", "int x;\n", "--format=json");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("[]"), std::string::npos) << r.output;
}

TEST(CladoLintTest, FormatGithubEmitsWorkflowAnnotations) {
  const LintResult r = run_lint("src/core/example.cpp",
                                "void f() { printf(\"x\"); }\n", "--format github");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("::error file=src/core/example.cpp,line=1,title=clado-lint no-stdio::"),
            std::string::npos)
      << r.output;
}

TEST(CladoLintTest, FormatRejectsUnknownValue) {
  const LintResult r = run_lint("src/core/example.cpp", "int x;\n", "--format=yaml");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

// ---- --list-rules golden + docs coverage -----------------------------------

std::string run_command(const std::string& cmd) {
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  std::string output;
  if (pipe == nullptr) return output;
  std::array<char, 4096> buf{};
  std::size_t got = 0;
  while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0) output.append(buf.data(), got);
  pclose(pipe);
  return output;
}

std::string read_file_or_empty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string out((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return out;
}

// Adding (or renaming) a rule without updating the golden file fails here;
// the golden file in turn anchors the docs-coverage test below, so a rule
// cannot land without documentation.
TEST(CladoLintTest, ListRulesMatchesGolden) {
  const std::string actual = run_command(std::string(CLADO_LINT_BIN) + " --list-rules 2>&1");
  const std::string golden =
      read_file_or_empty(std::string(CLADO_LINT_SOURCE_ROOT) + "/tests/clado_lint_rules.golden");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(actual, golden)
      << "clado_lint --list-rules drifted from tests/clado_lint_rules.golden; update the "
         "golden file AND the DESIGN.md rule table together";
  EXPECT_NE(actual.find("lock-discipline\n"), std::string::npos);
  EXPECT_NE(actual.find("env-discipline\n"), std::string::npos);
  EXPECT_NE(actual.find("simd-hygiene\n"), std::string::npos);
}

TEST(CladoLintTest, EveryRuleIdIsDocumentedInDesignDoc) {
  const std::string rules = run_command(std::string(CLADO_LINT_BIN) + " --list-rules 2>&1");
  const std::string design =
      read_file_or_empty(std::string(CLADO_LINT_SOURCE_ROOT) + "/DESIGN.md");
  ASSERT_FALSE(design.empty());
  std::size_t start = 0;
  while (start < rules.size()) {
    std::size_t end = rules.find('\n', start);
    if (end == std::string::npos) end = rules.size();
    const std::string rule = rules.substr(start, end - start);
    if (!rule.empty()) {
      EXPECT_NE(design.find("`" + rule + "`"), std::string::npos)
          << "rule id '" << rule << "' is missing from the DESIGN.md rule table";
    }
    start = end + 1;
  }
}

// End-to-end: the repo itself must lint clean (same invocation as the
// clado_lint_self_check ctest entry).
TEST(CladoLintTest, RepoSelfCheckIsClean) {
  const std::string cmd =
      std::string(CLADO_LINT_BIN) + " --root '" + CLADO_LINT_SOURCE_ROOT + "' 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  std::array<char, 4096> buf{};
  std::size_t got = 0;
  while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0) output.append(buf.data(), got);
  const int status = pclose(pipe);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << output;
}

}  // namespace
