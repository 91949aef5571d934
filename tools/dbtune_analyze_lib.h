#ifndef DBTUNE_TOOLS_DBTUNE_ANALYZE_LIB_H_
#define DBTUNE_TOOLS_DBTUNE_ANALYZE_LIB_H_

#include <string>
#include <vector>

/// dbtune_analyze — determinism-aware static analyzer for the dbtune
/// source tree. Successor of the line-regex dbtune_lint: one token
/// pipeline (comment / string / raw-string aware), a per-file scope and
/// lambda-capture pass, a check registry with structured diagnostics
/// (check id, severity, fix hint), machine-readable JSON output, and a
/// committed baseline file with per-line and per-file entries.
///
/// Pipeline: tokenize -> declaration pass (thread_local / unordered
/// containers / GUARDED_BY members / Status- and Result-returning
/// functions) -> scope pass (braces, loops, lambdas with capture lists,
/// ParallelFor/Submit call context, MutexLock scopes) -> checks ->
/// baseline filter.
///
/// Check ids (see Checks() for severity and fix hints):
///
/// Determinism & concurrency (grounded in real bug classes):
///   thread-local-capture  — a thread_local variable declared outside a
///                           lambda is named inside a lambda passed to
///                           ParallelFor/ThreadPool::Submit. On a pool
///                           worker the name resolves to the *worker's*
///                           own (empty, never-resized) instance, not the
///                           caller's — the PR 6 latent OOB write.
///   unordered-iteration   — a range-for over std::unordered_map/set
///                           whose body accumulates (+=/-=) or writes
///                           order-dependent output (push_back, <<,
///                           printf family). Hash order is unspecified,
///                           so results differ across toolchains/runs.
///   parallel-reduction-order — += / -= on a by-reference capture (or
///                           any non-local) inside a ParallelFor/Submit
///                           lambda body. The accumulation order depends
///                           on thread scheduling; reduce into per-chunk
///                           partial sums and combine chunk-ascending on
///                           one thread instead.
///   ignored-status        — a call to a Status/Result-returning function
///                           whose value is discarded: a bare expression
///                           statement, a (void)/static_cast<void> cast,
///                           or the comma operator (the forms that slip
///                           past [[nodiscard]]).
///   mutex-guard-gap       — a member annotated DBTUNE_GUARDED_BY is
///                           touched in a scope with no MutexLock /
///                           AssertHeld (and no DBTUNE_REQUIRES on the
///                           enclosing function). Complements clang's
///                           -Wthread-safety, which only runs on clang
///                           builds.
///
/// Repo invariants (migrated from dbtune_lint, identical findings):
///   random-seed   — std::rand/srand/time() seeding or std::random_device
///                   outside src/util/random; randomness must flow
///                   through the seeded Rng for reproducibility
///   raw-getenv    — getenv/secure_getenv outside src/util/env_config.cc;
///                   every switch is parsed once, into EnvConfig
///   naked-new     — raw `new` / `delete` expressions (`= delete` for
///                   deleted functions is fine); use make_unique etc.
///   using-namespace-std — `using namespace std` at any scope
///   include-guard — header guards must be DBTUNE_<PATH>_H_ (when a tree
///                   root other than src/ is analyzed, a root-qualified
///                   DBTUNE_<ROOT>_<PATH>_H_ form is also accepted, e.g.
///                   DBTUNE_TOOLS_... for this header)
///   iostream      — no <iostream> in library code outside util/logging
///   raw-timing    — no std::chrono clock reads outside src/obs and
///                   bench_util.h; timing must flow through obs/clock
///   predict-in-loop — scalar PredictMeanVar inside a loop under
///                   src/optimizer or src/transfer; score batches via
///                   PredictMeanVarBatch
///   gp-construction — direct GaussianProcess use under src/optimizer or
///                   src/transfer; obtain GP surrogates from
///                   surrogate_factory's CreateGpSurrogate
///   metrics-export — MetricsSnapshot/ToJson outside src/obs; render
///                   metrics through obs/metrics_export
///
/// Persistence paths (store/, obs/, benchmk/, the report and analyzer
/// CLIs — the files whose writes ARE the durable state):
///   unchecked-write — the result of fwrite/fprintf/fputs/fflush/fclose
///                   is discarded (bare statement, (void) cast,
///                   static_cast<void>, or comma operator), or an
///                   ofstream is written but its state never checked.
///                   A full disk or dead descriptor then fails silently
///                   and truncates WAL/snapshot/dataset files. Writes to
///                   stderr are exempt (best-effort diagnostics).
///
/// Scheduler paths (serve/ — the batch loop multiplexing every session):
///   blocking-in-scheduler — a blocking call on a serve/ path: C stdio
///                   (fopen/fread/fwrite/.../fclose), std file streams
///                   (ifstream/ofstream/fstream), sleeps (sleep_for,
///                   sleep_until, usleep, nanosleep, sleep), or a
///                   ThreadPool WaitAll. One blocked scheduler turn
///                   stalls every concurrent session; durable writes
///                   belong behind the ObservationStore API and the only
///                   sanctioned join is ParallelFor's internal one.
///
/// Decode paths (serve/ and store/ — where wire and disk bytes become
/// enums):
///   unvalidated-enum-cast — a static_cast to a declared enum in a
///                   function that never compares any identifier of the
///                   cast expression with a bound (`<`, `>`, `<=`, `>=`
///                   beside it). A value past the last enumerator then
///                   reaches switches and tables that assume a valid
///                   one. Range-check first and return a Status, or
///                   allow() the line with the reason every consumer
///                   handles unknown values (a switch with a default
///                   arm). Enum names are indexed tree-wide.
///
/// Suppressions (one syntax for every check):
///   * Single line — a trailing comment on the offending line:
///       ... code ...  // dbtune-lint: allow(<check>)
///   * Whole file — anywhere in the file, on its own comment line:
///       // dbtune-lint: allow-file(<check>)
///     File-level suppression is for generated code or files whose role
///     exempts them wholesale (e.g. a benchmark harness that must read
///     raw clocks); prefer the single-line form so the next edit to the
///     file is still checked.
///   * Baseline — a committed file (tools/dbtune_analyze_baseline.txt)
///     of `<path>[:<line>] <check>` entries for pre-existing findings.
///     CI fails when the baseline grows; it may only shrink.
namespace dbtune_analyze {

/// One finding at a specific line, with the registry metadata attached.
struct Diagnostic {
  std::string path;      // as reported: root-relative for tree runs
  int line = 0;          // 1-based
  std::string check;     // check id, e.g. "thread-local-capture"
  std::string severity;  // "error" | "warning"
  std::string message;
  std::string fix_hint;
  bool baselined = false;  // matched a baseline entry (does not fail CI)
};

/// Registry metadata for one check.
struct CheckInfo {
  const char* id;
  const char* severity;  // "error" | "warning"
  const char* summary;   // one-line rationale
  const char* fix_hint;  // canonical remediation
};

/// Every registered check, in stable (documentation) order.
const std::vector<CheckInfo>& Checks();

/// Analyzes one translation unit given its content. `relpath` is the
/// path relative to the analyzed root (used for path-scoped checks and
/// the expected include-guard name); `display_path` is what diagnostics
/// report. `guard_prefix` (e.g. "TOOLS_") names an additionally accepted
/// include-guard form DBTUNE_<prefix><PATH>_H_.
std::vector<Diagnostic> AnalyzeSource(const std::string& display_path,
                                      const std::string& relpath,
                                      const std::string& content,
                                      const std::string& guard_prefix = "");

/// Reads and analyzes one file on disk.
std::vector<Diagnostic> AnalyzeFile(const std::string& path,
                                    const std::string& relpath,
                                    const std::string& guard_prefix = "");

/// A whole-tree run: diagnostics plus how many files were analyzed.
struct TreeReport {
  std::vector<Diagnostic> diagnostics;
  size_t files_analyzed = 0;
};

/// Recursively analyzes every .h/.cc under `root` with tree-wide context:
/// Status/Result-returning names are indexed across the whole tree, and
/// GUARDED_BY members declared in a header also apply to the sibling
/// source file (same stem). Diagnostics report `<root-basename>/<relpath>`
/// so baselines stay machine-independent. Directories named
/// `lint_fixtures` (intentionally-bad check fixtures), `build`, and
/// hidden directories are skipped.
TreeReport AnalyzeTree(const std::string& root);

/// One baseline entry: `path check` (whole file, line == 0) or
/// `path:line check`.
struct BaselineEntry {
  std::string path;
  int line = 0;  // 0 = any line in the file
  std::string check;
};

/// Parses baseline text: one entry per line, `#` comments and blank
/// lines ignored.
std::vector<BaselineEntry> ParseBaselineText(const std::string& text);

/// Reads and parses a baseline file. Returns false when unreadable.
bool LoadBaselineFile(const std::string& path,
                      std::vector<BaselineEntry>* entries);

/// Marks diagnostics matching a baseline entry; returns how many matched.
size_t ApplyBaseline(const std::vector<BaselineEntry>& baseline,
                     std::vector<Diagnostic>* diagnostics);

/// "path:line: severity: [check] message" for human / CI output.
std::string FormatDiagnostic(const Diagnostic& diagnostic);

/// Machine-readable report: {"version":1,"tool":...,"checks":[...],
/// "summary":{...},"findings":[...]} with deterministic field order.
std::string ReportJson(const std::vector<Diagnostic>& diagnostics,
                       size_t files_analyzed);

}  // namespace dbtune_analyze

#endif  // DBTUNE_TOOLS_DBTUNE_ANALYZE_LIB_H_
