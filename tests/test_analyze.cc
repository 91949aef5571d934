// Exercises every dbtune_analyze check against the fixture files under
// tools/lint_fixtures/ (each check firing, each near-miss staying quiet,
// each suppression form) and self-checks that the shipped src/ and
// tools/ trees analyze clean. The legacy-rule tests carry the exact
// expectations of the retired dbtune_lint suite, so migration to the
// token pipeline is pinned to produce identical findings. Paths come
// from compile definitions set in tests/CMakeLists.txt.

#include "dbtune_analyze_lib.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

using dbtune_analyze::AnalyzeFile;
using dbtune_analyze::AnalyzeSource;
using dbtune_analyze::AnalyzeTree;
using dbtune_analyze::ApplyBaseline;
using dbtune_analyze::BaselineEntry;
using dbtune_analyze::CheckInfo;
using dbtune_analyze::Checks;
using dbtune_analyze::Diagnostic;
using dbtune_analyze::FormatDiagnostic;
using dbtune_analyze::ParseBaselineText;
using dbtune_analyze::ReportJson;

std::string FixturePath(const std::string& name) {
  return std::string(DBTUNE_LINT_FIXTURE_DIR) + "/" + name;
}

int CountCheck(const std::vector<Diagnostic>& diagnostics,
               const std::string& check) {
  return static_cast<int>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [&](const Diagnostic& d) { return d.check == check; }));
}

// ---------------------------------------------------------------------------
// Legacy-rule parity (expectations carried over verbatim from test_lint)
// ---------------------------------------------------------------------------

TEST(AnalyzeLegacyTest, RandomSeedCheckFires) {
  const auto findings = AnalyzeFile(FixturePath("bad_random.cc"),
                                    "bad_random.cc");
  // std::rand, std::srand, time(nullptr), std::random_device.
  EXPECT_EQ(CountCheck(findings, "random-seed"), 4);
  for (const Diagnostic& d : findings) {
    EXPECT_EQ(d.check, "random-seed") << FormatDiagnostic(d);
  }
}

TEST(AnalyzeLegacyTest, RandomSeedCheckSkipsUtilRandom) {
  // The same content under src/util/random is the one sanctioned home of
  // raw randomness primitives.
  const auto findings = AnalyzeFile(FixturePath("bad_random.cc"),
                                    "util/random.cc");
  EXPECT_EQ(CountCheck(findings, "random-seed"), 0);
}

TEST(AnalyzeLegacyTest, NakedNewCheckFiresButNotOnDeletedFunctions) {
  const auto findings = AnalyzeFile(FixturePath("bad_new.cc"), "bad_new.cc");
  EXPECT_EQ(CountCheck(findings, "naked-new"), 2);  // one new, one delete
}

TEST(AnalyzeLegacyTest, UsingNamespaceStdCheckFires) {
  const auto findings = AnalyzeFile(FixturePath("bad_namespace.cc"),
                                    "bad_namespace.cc");
  EXPECT_EQ(CountCheck(findings, "using-namespace-std"), 1);
}

TEST(AnalyzeLegacyTest, IncludeGuardCheckFires) {
  const auto findings = AnalyzeFile(FixturePath("bad_guard.h"), "bad_guard.h");
  ASSERT_EQ(CountCheck(findings, "include-guard"), 1);
  EXPECT_NE(findings[0].message.find("DBTUNE_BAD_GUARD_H_"),
            std::string::npos);
}

TEST(AnalyzeLegacyTest, IncludeGuardUsesRelativePath) {
  const std::string content =
      "#ifndef DBTUNE_UTIL_STATUS_H_\n#define DBTUNE_UTIL_STATUS_H_\n"
      "#endif\n";
  EXPECT_TRUE(AnalyzeSource("x.h", "util/status.h", content).empty());
  // Same content under another path must demand that path's guard.
  EXPECT_EQ(AnalyzeSource("x.h", "core/advisor.h", content).size(), 1u);
}

TEST(AnalyzeLegacyTest, IncludeGuardAcceptsRootPrefixedForm) {
  // Headers outside src/ (tools/, tests/) carry a root-qualified guard:
  // both DBTUNE_FOO_H_ and DBTUNE_TOOLS_FOO_H_ must pass under
  // guard_prefix "TOOLS_", and a wrong guard must still fail.
  const std::string plain = "#ifndef DBTUNE_FOO_H_\n#define DBTUNE_FOO_H_\n#endif\n";
  const std::string prefixed =
      "#ifndef DBTUNE_TOOLS_FOO_H_\n#define DBTUNE_TOOLS_FOO_H_\n#endif\n";
  const std::string wrong = "#ifndef FOO_H\n#define FOO_H\n#endif\n";
  EXPECT_TRUE(AnalyzeSource("foo.h", "foo.h", plain, "TOOLS_").empty());
  EXPECT_TRUE(AnalyzeSource("foo.h", "foo.h", prefixed, "TOOLS_").empty());
  EXPECT_EQ(AnalyzeSource("foo.h", "foo.h", wrong, "TOOLS_").size(), 1u);
}

TEST(AnalyzeLegacyTest, IostreamCheckFiresOutsideLogging) {
  const auto findings = AnalyzeFile(FixturePath("bad_iostream.cc"),
                                    "bad_iostream.cc");
  EXPECT_EQ(CountCheck(findings, "iostream"), 1);
}

TEST(AnalyzeLegacyTest, IostreamAllowedInUtilLogging) {
  const auto findings = AnalyzeFile(FixturePath("bad_iostream.cc"),
                                    "util/logging.cc");
  EXPECT_EQ(CountCheck(findings, "iostream"), 0);
}

TEST(AnalyzeLegacyTest, RawTimingCheckFires) {
  const auto findings = AnalyzeFile(FixturePath("bad_timing.cc"),
                                    "bad_timing.cc");
  // steady_clock, system_clock, high_resolution_clock; the allow() line
  // is suppressed.
  EXPECT_EQ(CountCheck(findings, "raw-timing"), 3);
}

TEST(AnalyzeLegacyTest, RawTimingAllowedInObsAndBenchUtil) {
  // src/obs is the sanctioned clock location; bench_util.h wraps
  // google-benchmark timing.
  EXPECT_EQ(CountCheck(AnalyzeFile(FixturePath("bad_timing.cc"),
                                   "obs/clock.cc"),
                       "raw-timing"),
            0);
  EXPECT_EQ(CountCheck(AnalyzeFile(FixturePath("bad_timing.cc"),
                                   "bench_util.h"),
                       "raw-timing"),
            0);
}

TEST(AnalyzeTest, RawGetenvCheckFires) {
  const auto findings = AnalyzeFile(FixturePath("bad_getenv.cc"),
                                    "bad_getenv.cc");
  // std::getenv, getenv, secure_getenv; the allow() line is suppressed.
  EXPECT_EQ(CountCheck(findings, "raw-getenv"), 3);
  EXPECT_EQ(findings.size(), 3u);
}

TEST(AnalyzeTest, RawGetenvAllowedOnlyInEnvConfig) {
  EXPECT_EQ(CountCheck(AnalyzeFile(FixturePath("bad_getenv.cc"),
                                   "util/env_config.cc"),
                       "raw-getenv"),
            0);
  EXPECT_EQ(CountCheck(AnalyzeFile(FixturePath("bad_getenv.cc"),
                                   "obs/env_config.cc"),
                       "raw-getenv"),
            3);
}

TEST(AnalyzeTest, RawGetenvNearMissesStayQuiet) {
  // The word in comments and strings, look-alike identifiers, and reads
  // through the parsed config.
  const auto findings = AnalyzeFile(FixturePath("near_getenv.cc"),
                                    "near_getenv.cc");
  for (const Diagnostic& d : findings) ADD_FAILURE() << FormatDiagnostic(d);
  EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeLegacyTest, PredictInLoopCheckFiresInOptimizerFiles) {
  const auto findings =
      AnalyzeFile(FixturePath("optimizer/bad_predict_loop.cc"),
                  "optimizer/bad_predict_loop.cc");
  // Braced for body, while body, braceless body; the out-of-loop call,
  // the allow() line, and the batched call are exempt.
  EXPECT_EQ(CountCheck(findings, "predict-in-loop"), 3);
  for (const Diagnostic& d : findings) {
    EXPECT_EQ(d.check, "predict-in-loop") << FormatDiagnostic(d);
  }
}

TEST(AnalyzeLegacyTest, PredictInLoopCheckOnlyAppliesUnderOptimizer) {
  // The same content outside src/optimizer (e.g. a surrogate internals
  // file) is allowed to issue scalar predictions in loops.
  const auto findings =
      AnalyzeFile(FixturePath("optimizer/bad_predict_loop.cc"),
                  "surrogate/bad_predict_loop.cc");
  EXPECT_EQ(CountCheck(findings, "predict-in-loop"), 0);
}

TEST(AnalyzeLegacyTest, PredictInLoopTracksNestingAcrossLines) {
  // A call after every loop has closed must not fire; one in a nested
  // loop across multiple lines must.
  const std::string content =
      "void F(const M& m, const C& c) {\n"
      "  for (size_t i = 0; i < 3; ++i) {\n"
      "    if (c.ok()) {\n"
      "      m.PredictMeanVar(c[i], &a, &b);\n"
      "    }\n"
      "  }\n"
      "  m.PredictMeanVar(c[0], &a, &b);\n"
      "}\n";
  const auto findings = AnalyzeSource("x.cc", "optimizer/x.cc", content);
  EXPECT_EQ(CountCheck(findings, "predict-in-loop"), 1);
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].line, 4);
}

TEST(AnalyzeLegacyTest, GpConstructionCheckFiresInOptimizerFiles) {
  const auto findings =
      AnalyzeFile(FixturePath("optimizer/bad_gp_construction.cc"),
                  "optimizer/bad_gp_construction.cc");
  // Direct ctor and make_unique; the options struct, the factory call,
  // and the allow() line are exempt.
  EXPECT_EQ(CountCheck(findings, "gp-construction"), 2);
  for (const Diagnostic& d : findings) {
    EXPECT_EQ(d.check, "gp-construction") << FormatDiagnostic(d);
  }
}

TEST(AnalyzeLegacyTest, GpConstructionCheckOnlyAppliesUnderOptimizer) {
  // surrogate/ (and tests, benches, the factory itself) may construct
  // the GP classes directly.
  const auto findings =
      AnalyzeFile(FixturePath("optimizer/bad_gp_construction.cc"),
                  "surrogate/bad_gp_construction.cc");
  EXPECT_EQ(CountCheck(findings, "gp-construction"), 0);
}

TEST(AnalyzeLegacyTest, ModelChecksApplyUnderTransfer) {
  // RGPE and workload mapping score candidate pools and build base
  // surrogates, so both optimizer-side checks apply to src/transfer too.
  const auto findings =
      AnalyzeFile(FixturePath("transfer/bad_base_surrogate.cc"),
                  "transfer/bad_base_surrogate.cc");
  EXPECT_EQ(CountCheck(findings, "predict-in-loop"), 1);
  EXPECT_EQ(CountCheck(findings, "gp-construction"), 1);
  EXPECT_EQ(findings.size(), 2u);  // nothing else fires
}

TEST(AnalyzeLegacyTest, MetricsExportCheckFiresOutsideObs) {
  const auto findings = AnalyzeFile(FixturePath("bad_metrics_export.cc"),
                                    "bad_metrics_export.cc");
  // The MetricsSnapshot forward declaration plus two ToJson mentions;
  // the allow() line is suppressed.
  EXPECT_EQ(CountCheck(findings, "metrics-export"), 3);
  for (const Diagnostic& d : findings) {
    EXPECT_EQ(d.check, "metrics-export") << FormatDiagnostic(d);
  }
}

TEST(AnalyzeLegacyTest, MetricsExportCheckAllowedInObs) {
  // src/obs owns the snapshot/serialization surface.
  const auto findings = AnalyzeFile(FixturePath("bad_metrics_export.cc"),
                                    "obs/metrics_export.cc");
  EXPECT_EQ(CountCheck(findings, "metrics-export"), 0);
}

TEST(AnalyzeLegacyTest, AllowEscapeHatchSuppressesEveryCheck) {
  EXPECT_TRUE(AnalyzeFile(FixturePath("allowed.cc"), "allowed.cc").empty());
  EXPECT_TRUE(
      AnalyzeFile(FixturePath("allowed_guard.h"), "allowed_guard.h").empty());
}

TEST(AnalyzeLegacyTest, AllowIsPerCheckNotBlanket) {
  // An allow() for one check must not mask a different check on that line.
  const std::string content =
      "int* p = new int(std::rand());  // dbtune-lint: allow(naked-new)\n";
  const auto findings = AnalyzeSource("x.cc", "x.cc", content);
  EXPECT_EQ(CountCheck(findings, "naked-new"), 0);
  EXPECT_EQ(CountCheck(findings, "random-seed"), 1);
}

TEST(AnalyzeLegacyTest, CommentsAndStringsAreNotScanned) {
  EXPECT_TRUE(AnalyzeFile(FixturePath("clean.h"), "clean.h").empty());
  const std::string content =
      "// a new idea about delete and rand()\n"
      "/* using namespace std inside a block comment\n"
      "   spanning lines with new */\n"
      "const char* kText = \"new delete time( rand()\";\n";
  EXPECT_TRUE(AnalyzeSource("x.cc", "x.cc", content).empty());
}

TEST(AnalyzeLegacyTest, RawStringsAreNotScanned) {
  // The old line-regex linter never understood raw strings; the token
  // pipeline must skip their bodies entirely.
  const std::string content =
      "const char* kJson = R\"json(\n"
      "  {\"cmd\": \"new delete rand() using namespace std\"}\n"
      ")json\";\n"
      "int x = 0;\n";
  EXPECT_TRUE(AnalyzeSource("x.cc", "x.cc", content).empty());
}

// ---------------------------------------------------------------------------
// New determinism/concurrency checks
// ---------------------------------------------------------------------------

TEST(AnalyzeTest, ThreadLocalCaptureFiresOnPr6BugShape) {
  const auto findings = AnalyzeFile(FixturePath("bad_thread_local_capture.cc"),
                                    "bad_thread_local_capture.cc");
  // One through ParallelFor (the PR 6 crash), one through Submit.
  ASSERT_EQ(CountCheck(findings, "thread-local-capture"), 2);
  EXPECT_EQ(findings.size(), 2u);
  EXPECT_NE(findings[0].message.find("k_star"), std::string::npos);
  EXPECT_EQ(findings[0].severity, "error");
}

TEST(AnalyzeTest, ThreadLocalCaptureNearMissesStayQuiet) {
  // Pointer captured by value (the PR 6 fix) and a thread_local declared
  // inside the lambda body are both sanctioned.
  const auto findings = AnalyzeFile(FixturePath("near_thread_local_capture.cc"),
                                    "near_thread_local_capture.cc");
  for (const Diagnostic& d : findings) ADD_FAILURE() << FormatDiagnostic(d);
  EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeTest, UnorderedIterationFiresOnAccumulationAndOutput) {
  const auto findings = AnalyzeFile(FixturePath("bad_unordered_iteration.cc"),
                                    "bad_unordered_iteration.cc");
  // One float reduction, one push_back emission.
  EXPECT_EQ(CountCheck(findings, "unordered-iteration"), 2);
  EXPECT_EQ(findings.size(), 2u);
}

TEST(AnalyzeTest, UnorderedIterationNearMissesStayQuiet) {
  // Sorted snapshot, point lookup, and std::map iteration are all fine.
  const auto findings = AnalyzeFile(FixturePath("near_unordered_iteration.cc"),
                                    "near_unordered_iteration.cc");
  for (const Diagnostic& d : findings) ADD_FAILURE() << FormatDiagnostic(d);
  EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeTest, ParallelReductionOrderFires) {
  const auto findings = AnalyzeFile(FixturePath("bad_parallel_reduction.cc"),
                                    "bad_parallel_reduction.cc");
  // One += through ParallelFor, one -= through Submit.
  EXPECT_EQ(CountCheck(findings, "parallel-reduction-order"), 2);
  EXPECT_EQ(findings.size(), 2u);
}

TEST(AnalyzeTest, ParallelReductionNearMissStaysQuiet) {
  // Lambda-local accumulator deposited into a chunk-indexed slot, reduced
  // chunk-ascending on one thread — the repo's sanctioned pattern.
  const auto findings = AnalyzeFile(FixturePath("near_parallel_reduction.cc"),
                                    "near_parallel_reduction.cc");
  for (const Diagnostic& d : findings) ADD_FAILURE() << FormatDiagnostic(d);
  EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeTest, IgnoredStatusFiresOnAllDiscardForms) {
  const auto findings = AnalyzeFile(FixturePath("bad_ignored_status.cc"),
                                    "bad_ignored_status.cc");
  // Bare statement, (void), static_cast<void>, comma operator.
  EXPECT_EQ(CountCheck(findings, "ignored-status"), 4);
  EXPECT_EQ(findings.size(), 4u);
}

TEST(AnalyzeTest, IgnoredStatusNearMissesStayQuiet) {
  // Stored, checked inline, macro-wrapped, and returned Status values.
  const auto findings = AnalyzeFile(FixturePath("near_ignored_status.cc"),
                                    "near_ignored_status.cc");
  for (const Diagnostic& d : findings) ADD_FAILURE() << FormatDiagnostic(d);
  EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeTest, MutexGuardGapFires) {
  const auto findings = AnalyzeFile(FixturePath("bad_mutex_guard_gap.h"),
                                    "bad_mutex_guard_gap.h");
  // Peek() reads value_ without the mutex; Increment() holds it.
  EXPECT_EQ(CountCheck(findings, "mutex-guard-gap"), 1);
  EXPECT_EQ(findings.size(), 1u);
}

TEST(AnalyzeTest, MutexGuardGapRespectsRequiresAfterAttribute) {
  // `[[nodiscard]]` before the signature must not make the body parse as
  // a lambda (which would skip the DBTUNE_REQUIRES annotation scan).
  const std::string content =
      "struct S {\n"
      "  Mutex mu;\n"
      "  int value DBTUNE_GUARDED_BY(mu);\n"
      "};\n"
      "[[nodiscard]] int Read(S* s) DBTUNE_REQUIRES(s->mu) {\n"
      "  return s->value;\n"
      "}\n";
  const auto findings = AnalyzeSource("x.cc", "x.cc", content);
  EXPECT_EQ(CountCheck(findings, "mutex-guard-gap"), 0);
}

TEST(AnalyzeTest, MutexGuardGapNearMissesStayQuiet) {
  // MutexLock in scope and DBTUNE_REQUIRES on the signature both count.
  const auto findings = AnalyzeFile(FixturePath("near_mutex_guard_gap.h"),
                                    "near_mutex_guard_gap.h");
  for (const Diagnostic& d : findings) ADD_FAILURE() << FormatDiagnostic(d);
  EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeTest, UncheckedWriteFiresOnAllDiscardFormsAndOfstream) {
  const auto findings =
      AnalyzeFile(FixturePath("store/bad_unchecked_write.cc"),
                  "store/bad_unchecked_write.cc");
  // fwrite and fprintf bare statements, (void) fflush, fputs behind the
  // comma operator, static_cast<void> fclose, and the never-checked
  // ofstream declaration.
  EXPECT_EQ(CountCheck(findings, "unchecked-write"), 6);
  EXPECT_EQ(findings.size(), 6u);
  for (const Diagnostic& d : findings) {
    EXPECT_EQ(d.severity, "error") << FormatDiagnostic(d);
  }
}

TEST(AnalyzeTest, UncheckedWriteNearMissesStayQuiet) {
  // Stored/tested results, stderr diagnostics, a good()-checked
  // ofstream, and the allow() escape hatch are all sanctioned.
  const auto findings =
      AnalyzeFile(FixturePath("store/near_unchecked_write.cc"),
                  "store/near_unchecked_write.cc");
  for (const Diagnostic& d : findings) ADD_FAILURE() << FormatDiagnostic(d);
  EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeTest, UncheckedWriteOnlyAppliesOnPersistencePaths) {
  // The same content outside store//obs//benchmk/ and the artifact CLIs
  // may write best-effort (e.g. optimizer scratch output).
  const auto findings =
      AnalyzeFile(FixturePath("store/bad_unchecked_write.cc"),
                  "optimizer/scratch_io.cc");
  EXPECT_EQ(CountCheck(findings, "unchecked-write"), 0);
}

TEST(AnalyzeTest, UncheckedWriteCoversArtifactClis) {
  // The report/analyzer CLIs write CI artifacts; their relpaths are in
  // scope wherever the tools tree is rooted.
  const std::string content =
      "#include <cstdio>\n"
      "void Emit(std::FILE* f) { std::fflush(f); }\n";
  EXPECT_EQ(CountCheck(AnalyzeSource("x.cc", "dbtune_report.cc", content),
                       "unchecked-write"),
            1);
  EXPECT_EQ(
      CountCheck(AnalyzeSource("x.cc", "core/tuning_session.cc", content),
                 "unchecked-write"),
      0);
}

TEST(AnalyzeTest, BlockingInSchedulerFiresOnEveryBlockingForm) {
  const auto findings = AnalyzeFile(FixturePath("serve/bad_blocking.cc"),
                                    "serve/bad_blocking.cc");
  // fopen, fwrite, fclose, ofstream, ifstream, sleep_for, usleep,
  // WaitAll; the fflush line carries an allow() and stays quiet.
  EXPECT_EQ(CountCheck(findings, "blocking-in-scheduler"), 8);
  EXPECT_EQ(findings.size(), 8u);
  for (const Diagnostic& d : findings) {
    EXPECT_EQ(d.severity, "error") << FormatDiagnostic(d);
  }
}

TEST(AnalyzeTest, BlockingInSchedulerNearMissesStayQuiet) {
  // Store-API persistence, ParallelFor as the join, banned vocabulary in
  // comments/strings, and a plain variable named sleep are all fine.
  const auto findings = AnalyzeFile(FixturePath("serve/near_blocking.cc"),
                                    "serve/near_blocking.cc");
  for (const Diagnostic& d : findings) ADD_FAILURE() << FormatDiagnostic(d);
  EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeTest, BlockingInSchedulerOnlyAppliesUnderServe) {
  // The same content outside serve/ (the store itself, a CLI) is the
  // sanctioned home of file I/O and joins.
  const auto findings = AnalyzeFile(FixturePath("serve/bad_blocking.cc"),
                                    "store/scratch_io.cc");
  EXPECT_EQ(CountCheck(findings, "blocking-in-scheduler"), 0);
}

TEST(AnalyzeTest, UnvalidatedEnumCastFiresOnUncheckedDecodes) {
  const auto findings = AnalyzeFile(FixturePath("serve/bad_enum_cast.cc"),
                                    "serve/bad_enum_cast.cc");
  // The frame tag, the optimizer byte checked only in another function,
  // the status byte whose function checks another field, and the
  // qualified record type; the allow()ed cast stays quiet.
  EXPECT_EQ(CountCheck(findings, "unvalidated-enum-cast"), 4);
  EXPECT_EQ(findings.size(), 4u);
  for (const Diagnostic& d : findings) {
    EXPECT_EQ(d.severity, "error") << FormatDiagnostic(d);
  }
}

TEST(AnalyzeTest, UnvalidatedEnumCastNearMissesStayQuiet) {
  // Range checks on either side of a comparison, through a parenthesized
  // operand or a local copy, and casts from an enum to an integer.
  const auto findings = AnalyzeFile(FixturePath("serve/near_enum_cast.cc"),
                                    "serve/near_enum_cast.cc");
  for (const Diagnostic& d : findings) ADD_FAILURE() << FormatDiagnostic(d);
  EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeTest, UnvalidatedEnumCastAppliesToServeAndStoreOnly) {
  EXPECT_EQ(CountCheck(AnalyzeFile(FixturePath("serve/bad_enum_cast.cc"),
                                   "store/bad_enum_cast.cc"),
                       "unvalidated-enum-cast"),
            4);
  EXPECT_EQ(CountCheck(AnalyzeFile(FixturePath("serve/bad_enum_cast.cc"),
                                   "optimizer/bad_enum_cast.cc"),
                       "unvalidated-enum-cast"),
            0);
}

TEST(AnalyzeTest, IgnoredStatusRespectsLocalNonStatusOverride) {
  // A file whose own Build() returns int must not inherit some other
  // file's Result-returning Build from the tree-wide index — pinned here
  // at the per-file level where both declarations are visible.
  const std::string content =
      "struct Status { static Status OK(); };\n"
      "struct T { int Build(int v); Status Commit(); };\n"
      "int T::Build(int v) { return v; }\n"
      "void F(T* t) {\n"
      "  t->Build(1);\n"    // int-returning: fine to discard
      "  t->Commit();\n"    // Status-returning: flagged
      "}\n";
  const auto findings = AnalyzeSource("x.cc", "x.cc", content);
  EXPECT_EQ(CountCheck(findings, "ignored-status"), 1);
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].line, 6);
}

// ---------------------------------------------------------------------------
// Suppressions, baseline, report
// ---------------------------------------------------------------------------

TEST(AnalyzeTest, AllowFileSuppressesOneCheckFileWide) {
  const std::string content =
      "// dbtune-lint: allow-file(naked-new)\n"
      "int* a = new int(1);\n"
      "int* b = new int(std::rand());\n";
  const auto findings = AnalyzeSource("x.cc", "x.cc", content);
  // Both news are suppressed file-wide; the unrelated check still fires.
  EXPECT_EQ(CountCheck(findings, "naked-new"), 0);
  EXPECT_EQ(CountCheck(findings, "random-seed"), 1);
}

TEST(AnalyzeTest, BaselineParsesCommentsLinesAndFiles) {
  const std::string text =
      "# header comment\n"
      "\n"
      "src/core/foo.cc:12 naked-new\n"
      "src/core/bar.cc ignored-status  # whole file\n";
  const auto entries = ParseBaselineText(text);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].path, "src/core/foo.cc");
  EXPECT_EQ(entries[0].line, 12);
  EXPECT_EQ(entries[0].check, "naked-new");
  EXPECT_EQ(entries[1].path, "src/core/bar.cc");
  EXPECT_EQ(entries[1].line, 0);
  EXPECT_EQ(entries[1].check, "ignored-status");
}

TEST(AnalyzeTest, BaselineMarksOnlyMatchingDiagnostics) {
  std::vector<Diagnostic> diagnostics = {
      {"src/a.cc", 5, "naked-new", "warning", "m", "h", false},
      {"src/a.cc", 9, "naked-new", "warning", "m", "h", false},
      {"src/b.cc", 3, "ignored-status", "error", "m", "h", false},
  };
  const std::vector<BaselineEntry> baseline = {
      {"src/a.cc", 5, "naked-new"},      // exact line
      {"src/b.cc", 0, "ignored-status"}  // whole file
  };
  EXPECT_EQ(ApplyBaseline(baseline, &diagnostics), 2u);
  EXPECT_TRUE(diagnostics[0].baselined);
  EXPECT_FALSE(diagnostics[1].baselined);  // line 9 is not baselined
  EXPECT_TRUE(diagnostics[2].baselined);
}

TEST(AnalyzeTest, JsonReportCarriesRegistrySummaryAndFindings) {
  std::vector<Diagnostic> diagnostics = {
      {"src/a.cc", 5, "naked-new", "warning", "msg \"quoted\"", "hint", true},
      {"src/b.cc", 3, "thread-local-capture", "error", "m", "h", false},
  };
  const std::string json = ReportJson(diagnostics, 7);
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tool\":\"dbtune_analyze\""), std::string::npos);
  EXPECT_NE(json.find("\"files\":7"), std::string::npos);
  EXPECT_NE(json.find("\"findings\":2"), std::string::npos);
  EXPECT_NE(json.find("\"baselined\":1"), std::string::npos);
  EXPECT_NE(json.find("\"new\":1"), std::string::npos);
  EXPECT_NE(json.find("\"msg \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"check\":\"thread-local-capture\""),
            std::string::npos);
  // Every registered check id is documented in the report header.
  for (const CheckInfo& check : Checks()) {
    EXPECT_NE(json.find(std::string("\"id\":\"") + check.id + "\""),
              std::string::npos)
        << check.id;
  }
}

TEST(AnalyzeTest, RegistryMetadataIsComplete) {
  const std::vector<std::string> required = {
      "thread-local-capture", "unordered-iteration", "parallel-reduction-order",
      "ignored-status",       "mutex-guard-gap",     "random-seed",
      "naked-new",            "using-namespace-std", "include-guard",
      "iostream",             "raw-timing",          "predict-in-loop",
      "gp-construction",      "metrics-export",      "unchecked-write",
      "blocking-in-scheduler", "raw-getenv",         "unvalidated-enum-cast"};
  for (const std::string& id : required) {
    const auto it = std::find_if(
        Checks().begin(), Checks().end(),
        [&](const CheckInfo& check) { return id == check.id; });
    ASSERT_NE(it, Checks().end()) << id;
    EXPECT_TRUE(std::string(it->severity) == "error" ||
                std::string(it->severity) == "warning")
        << id;
    EXPECT_FALSE(std::string(it->summary).empty()) << id;
    EXPECT_FALSE(std::string(it->fix_hint).empty()) << id;
  }
}

// ---------------------------------------------------------------------------
// Whole-tree runs
// ---------------------------------------------------------------------------

TEST(AnalyzeTest, FixtureTreeFindsAllViolations) {
  const auto report = AnalyzeTree(DBTUNE_LINT_FIXTURE_DIR);
  const auto& findings = report.diagnostics;
  // Legacy counts, carried over verbatim.
  EXPECT_EQ(CountCheck(findings, "random-seed"), 4);
  EXPECT_EQ(CountCheck(findings, "naked-new"), 2);
  EXPECT_EQ(CountCheck(findings, "using-namespace-std"), 1);
  EXPECT_EQ(CountCheck(findings, "include-guard"), 1);
  EXPECT_EQ(CountCheck(findings, "iostream"), 1);
  EXPECT_EQ(CountCheck(findings, "raw-timing"), 3);
  // predict-in-loop: optimizer/ fixture 3, transfer/ fixture 1;
  // gp-construction: optimizer/ fixture 2, transfer/ fixture 1.
  EXPECT_EQ(CountCheck(findings, "predict-in-loop"), 4);
  EXPECT_EQ(CountCheck(findings, "gp-construction"), 3);
  EXPECT_EQ(CountCheck(findings, "metrics-export"), 3);
  // New determinism checks: true positives only, near-misses quiet.
  EXPECT_EQ(CountCheck(findings, "thread-local-capture"), 2);
  EXPECT_EQ(CountCheck(findings, "unordered-iteration"), 2);
  EXPECT_EQ(CountCheck(findings, "parallel-reduction-order"), 2);
  EXPECT_EQ(CountCheck(findings, "ignored-status"), 4);
  EXPECT_EQ(CountCheck(findings, "mutex-guard-gap"), 1);
  EXPECT_EQ(CountCheck(findings, "raw-getenv"), 3);
  // Persistence checks: the store/ fixture subdirectory is in scope.
  EXPECT_EQ(CountCheck(findings, "unchecked-write"), 6);
  // Scheduler checks: the serve/ fixture subdirectory is in scope.
  EXPECT_EQ(CountCheck(findings, "blocking-in-scheduler"), 8);
  EXPECT_EQ(CountCheck(findings, "unvalidated-enum-cast"), 4);
  for (const Diagnostic& d : findings) {
    EXPECT_EQ(d.path.find("near_"), std::string::npos) << FormatDiagnostic(d);
  }
}

// The shipped trees must analyze clean — the same invariant the
// `analyze_src` ctest enforces via the CLI, checked here through the API
// so a failure prints the precise findings.
TEST(AnalyzeTest, ShippedSourceTreeIsClean) {
  const auto report = AnalyzeTree(DBTUNE_ANALYZE_SRC_DIR);
  for (const Diagnostic& d : report.diagnostics) {
    ADD_FAILURE() << FormatDiagnostic(d);
  }
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_GT(report.files_analyzed, 100u);
}

TEST(AnalyzeTest, ToolsTreeIsClean) {
  // The analyzer must not flag its own implementation (lint_fixtures/ is
  // skipped as a subdirectory; the fixtures are covered above).
  const auto report = AnalyzeTree(DBTUNE_ANALYZE_TOOLS_DIR);
  for (const Diagnostic& d : report.diagnostics) {
    ADD_FAILURE() << FormatDiagnostic(d);
  }
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_GT(report.files_analyzed, 3u);
}

}  // namespace
