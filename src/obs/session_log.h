#ifndef DBTUNE_OBS_SESSION_LOG_H_
#define DBTUNE_OBS_SESSION_LOG_H_

#include <cstdio>
#include <string>

#include "obs/diagnostics.h"

namespace dbtune::obs {

/// One tuning-loop iteration as logged to the session JSONL file.
struct SessionIterationRecord {
  size_t iteration = 0;  // 1-based
  double suggest_seconds = 0.0;
  double evaluate_seconds = 0.0;
  double observe_seconds = 0.0;
  /// Score of this iteration's configuration (maximize direction).
  double score = 0.0;
  /// Best score observed so far, inclusive of this iteration.
  double best_score = 0.0;
  /// Best-so-far improvement (%) over the default configuration.
  double improvement_percent = 0.0;
  /// When set, the versioned `diag_v` fields are appended to the line.
  /// The base fields above keep their exact byte layout either way.
  bool has_diagnostics = false;
  IterationDiagnostics diagnostics;
};

/// Append-only JSONL sink for per-iteration session records: one JSON
/// object per line, fields always in the same order, so same-seed runs
/// under the fake clock produce byte-identical files (the obs golden
/// tests diff them directly) and `jq`/pandas consume them directly.
///
/// A default-constructed logger is disabled and logs nothing.
class SessionLogger {
 public:
  SessionLogger() = default;
  /// Opens `path` for writing (truncates). Empty path → disabled; a path
  /// that cannot be opened logs a warning and disables itself.
  explicit SessionLogger(const std::string& path);
  ~SessionLogger();

  SessionLogger(SessionLogger&& other) noexcept;
  SessionLogger& operator=(SessionLogger&& other) noexcept;
  SessionLogger(const SessionLogger&) = delete;
  SessionLogger& operator=(const SessionLogger&) = delete;

  bool enabled() const { return file_ != nullptr; }

  /// Writes one record as a single JSON line and flushes it.
  void Log(const SessionIterationRecord& record);

  /// Flushes and closes the file. Idempotent: safe to call repeatedly
  /// and again from the destructor; the logger is disabled afterwards.
  void Close();

 private:
  std::FILE* file_ = nullptr;
};

}  // namespace dbtune::obs

#endif  // DBTUNE_OBS_SESSION_LOG_H_
