#ifndef DBTUNE_TOOLS_DBTUNE_REPORT_LIB_H_
#define DBTUNE_TOOLS_DBTUNE_REPORT_LIB_H_

#include <cstddef>
#include <string>
#include <vector>

namespace dbtune_report {

/// One parsed session-JSONL line (see obs::SessionLogger for the
/// producer). Base fields are always present; `has_diagnostics` marks
/// lines that carried the versioned `diag_v` extension.
struct IterationRow {
  size_t iteration = 0;
  double suggest_seconds = 0.0;
  double evaluate_seconds = 0.0;
  double observe_seconds = 0.0;
  double score = 0.0;
  double best_score = 0.0;
  double improvement_percent = 0.0;

  bool has_diagnostics = false;
  int diag_version = 0;
  bool has_prediction = false;
  double standardized_residual = 0.0;
  double nlpd = 0.0;
  double coverage68 = 0.0;
  double coverage95 = 0.0;
  double simple_regret = 0.0;
  double cumulative_regret = 0.0;
  size_t stall_iterations = 0;
  double improvement_ewma = 0.0;
  double acquisition_best = 0.0;
  double acquisition_spread = 0.0;
  double incremental_fit_rate = 0.0;
  unsigned long long hyperopt_runs = 0;
};

/// One session file's parsed content.
struct SessionData {
  std::string name;  // display name (file path or label)
  std::vector<IterationRow> rows;
  size_t malformed_lines = 0;
};

/// Parses a session JSONL blob. Lines that do not carry the base fields
/// count as malformed and are skipped (the report prints the count).
SessionData ParseSessionJsonl(const std::string& name,
                              const std::string& content);

/// Unicode block sparkline of `values`, downsampled to at most
/// `max_points` buckets (bucket mean). Empty input → "".
std::string Sparkline(const std::vector<double>& values, size_t max_points);

/// Nearest-rank percentile of `sorted_values` (ascending). q in [0,1].
double Percentile(const std::vector<double>& sorted_values, double q);

/// Renders the markdown report over all sessions: best-score sparkline
/// table, convergence and calibration summaries when diagnostics are
/// present, and per-phase latency percentiles. Deterministic: same
/// inputs → byte-identical output.
std::string RenderMarkdownReport(const std::vector<SessionData>& sessions);

/// Durable-store contents, flattened to plain data so this library stays
/// independent of the dbtune library (the CLI opens the store and fills
/// this in).
struct StoreSummary {
  std::string path;
  struct Session {
    std::string id;
    size_t dimension = 0;
    size_t observations = 0;
    bool finished = false;
  };
  std::vector<Session> sessions;
  size_t tasks = 0;
  /// Sealed sessions whose history lives only in the data log.
  size_t sealed_sessions = 0;
  /// The data log's covered length, the part of it nothing references,
  /// and its compactions through this handle.
  unsigned long long data_log_bytes = 0;
  unsigned long long dead_bytes = 0;
  size_t compactions = 0;
  /// Bytes recovery read (the manifest log and the WAL).
  unsigned long long recovery_bytes_read = 0;
  /// Observations the store holds in memory (logged since the last
  /// checkpoint).
  size_t observations_in_memory = 0;
  unsigned long long last_lsn = 0;
  bool loaded_snapshot = false;
  bool recovered_torn_tail = false;
};

/// Renders the "Durable store" markdown section. Deterministic.
std::string RenderStoreSummary(const StoreSummary& summary);

}  // namespace dbtune_report

#endif  // DBTUNE_TOOLS_DBTUNE_REPORT_LIB_H_
