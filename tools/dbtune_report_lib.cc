#include "dbtune_report_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace dbtune_report {

namespace {

/// Finds `"key":` in `line` and parses the number that follows. Returns
/// false when the key is absent or not followed by a number.
bool FindNumber(const std::string& line, const std::string& key,
                double* out) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const char* start = line.c_str() + pos + needle.size();
  char* end = nullptr;
  const double value = std::strtod(start, &end);
  if (end == start) return false;
  *out = value;
  return true;
}

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

}  // namespace

SessionData ParseSessionJsonl(const std::string& name,
                              const std::string& content) {
  SessionData session;
  session.name = name;
  std::istringstream stream(content);
  std::string line;
  while (std::getline(stream, line)) {
    if (line.empty()) continue;
    IterationRow row;
    double value = 0.0;
    const bool base_ok =
        FindNumber(line, "iter", &value) &&
        (row.iteration = static_cast<size_t>(value), true) &&
        FindNumber(line, "suggest_s", &row.suggest_seconds) &&
        FindNumber(line, "evaluate_s", &row.evaluate_seconds) &&
        FindNumber(line, "observe_s", &row.observe_seconds) &&
        FindNumber(line, "score", &row.score) &&
        FindNumber(line, "best_score", &row.best_score) &&
        FindNumber(line, "improvement_pct", &row.improvement_percent);
    if (!base_ok) {
      ++session.malformed_lines;
      continue;
    }
    if (FindNumber(line, "diag_v", &value)) {
      row.has_diagnostics = true;
      row.diag_version = static_cast<int>(value);
      if (FindNumber(line, "pred", &value)) {
        row.has_prediction = value != 0.0;
      }
      FindNumber(line, "zres", &row.standardized_residual);
      FindNumber(line, "nlpd", &row.nlpd);
      FindNumber(line, "cov68", &row.coverage68);
      FindNumber(line, "cov95", &row.coverage95);
      FindNumber(line, "regret", &row.simple_regret);
      FindNumber(line, "cum_regret", &row.cumulative_regret);
      if (FindNumber(line, "stall", &value)) {
        row.stall_iterations = static_cast<size_t>(value);
      }
      FindNumber(line, "ewma_improve", &row.improvement_ewma);
      FindNumber(line, "acq_best", &row.acquisition_best);
      FindNumber(line, "acq_spread", &row.acquisition_spread);
      FindNumber(line, "inc_fit_rate", &row.incremental_fit_rate);
      if (FindNumber(line, "hyperopt_runs", &value)) {
        row.hyperopt_runs = static_cast<unsigned long long>(value);
      }
    }
    session.rows.push_back(row);
  }
  return session;
}

std::string Sparkline(const std::vector<double>& values, size_t max_points) {
  if (values.empty() || max_points == 0) return "";
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  // Downsample to at most max_points buckets by bucket mean.
  std::vector<double> points;
  const size_t buckets = std::min(max_points, values.size());
  points.reserve(buckets);
  for (size_t b = 0; b < buckets; ++b) {
    const size_t begin = b * values.size() / buckets;
    const size_t end = (b + 1) * values.size() / buckets;
    double sum = 0.0;
    for (size_t i = begin; i < end; ++i) sum += values[i];
    points.push_back(sum / static_cast<double>(end - begin));
  }
  double lo = points.front();
  double hi = points.front();
  for (double p : points) {
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  const double span = hi - lo;
  std::string out;
  for (double p : points) {
    size_t level = 0;
    if (span > 0.0) {
      level = static_cast<size_t>((p - lo) / span * 7.0 + 0.5);
      level = std::min<size_t>(level, 7);
    }
    out += kBlocks[level];
  }
  return out;
}

double Percentile(const std::vector<double>& sorted_values, double q) {
  if (sorted_values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: ceil(q * n), 1-based.
  const double n = static_cast<double>(sorted_values.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  if (rank == 0) rank = 1;
  return sorted_values[rank - 1];
}

std::string RenderMarkdownReport(const std::vector<SessionData>& sessions) {
  std::string out = "# dbtune session report\n\n";

  out += "## Sessions\n\n";
  out += "| session | iterations | best score | improvement % | "
         "best-score trend |\n";
  out += "|---|---|---|---|---|\n";
  for (const SessionData& session : sessions) {
    std::vector<double> best_trace;
    best_trace.reserve(session.rows.size());
    for (const IterationRow& row : session.rows) {
      best_trace.push_back(row.best_score);
    }
    const IterationRow* last =
        session.rows.empty() ? nullptr : &session.rows.back();
    out += "| " + session.name + " | " +
           std::to_string(session.rows.size()) + " | " +
           (last ? FormatNumber(last->best_score) : "-") + " | " +
           (last ? FormatNumber(last->improvement_percent) : "-") + " | " +
           Sparkline(best_trace, 24) + " |\n";
    if (session.malformed_lines > 0) {
      out += "\n> " + std::to_string(session.malformed_lines) +
             " malformed line(s) skipped in " + session.name + "\n";
    }
  }
  out += "\n";

  for (const SessionData& session : sessions) {
    const bool any_diag =
        std::any_of(session.rows.begin(), session.rows.end(),
                    [](const IterationRow& r) { return r.has_diagnostics; });
    if (!any_diag) continue;
    const IterationRow& last = session.rows.back();

    out += "## Diagnostics: " + session.name + "\n\n";

    out += "### Convergence\n\n";
    std::vector<double> regret;
    regret.reserve(session.rows.size());
    for (const IterationRow& row : session.rows) {
      regret.push_back(row.simple_regret);
    }
    out += "- simple regret trend: " + Sparkline(regret, 24) + "\n";
    out += "- cumulative regret: " + FormatNumber(last.cumulative_regret) +
           "\n";
    out += "- iterations since improvement: " +
           std::to_string(last.stall_iterations) + "\n";
    out += "- improvement EWMA: " + FormatNumber(last.improvement_ewma) +
           "\n\n";

    out += "### Calibration\n\n";
    size_t predicted = 0;
    for (const IterationRow& row : session.rows) {
      if (row.has_prediction) ++predicted;
    }
    out += "- predicted iterations: " + std::to_string(predicted) + " / " +
           std::to_string(session.rows.size()) + "\n";
    out += "- 68% interval coverage: " + FormatNumber(last.coverage68) +
           " (nominal 0.683)\n";
    out += "- 95% interval coverage: " + FormatNumber(last.coverage95) +
           " (nominal 0.95)\n\n";

    out += "### Model health\n\n";
    out += "- incremental fit rate: " +
           FormatNumber(last.incremental_fit_rate) + "\n";
    out += "- hyper-parameter searches: " +
           std::to_string(last.hyperopt_runs) + "\n";
    out += "- acquisition best / spread: " +
           FormatNumber(last.acquisition_best) + " / " +
           FormatNumber(last.acquisition_spread) + "\n\n";
  }

  out += "## Latency percentiles (seconds)\n\n";
  out += "| session | phase | p50 | p95 | p99 |\n";
  out += "|---|---|---|---|---|\n";
  for (const SessionData& session : sessions) {
    const struct {
      const char* phase;
      double IterationRow::* field;
    } kPhases[] = {{"suggest", &IterationRow::suggest_seconds},
                   {"evaluate", &IterationRow::evaluate_seconds},
                   {"observe", &IterationRow::observe_seconds}};
    for (const auto& phase : kPhases) {
      std::vector<double> values;
      values.reserve(session.rows.size());
      for (const IterationRow& row : session.rows) {
        values.push_back(row.*phase.field);
      }
      std::sort(values.begin(), values.end());
      out += "| " + session.name + " | " + phase.phase + " | " +
             FormatNumber(Percentile(values, 0.50)) + " | " +
             FormatNumber(Percentile(values, 0.95)) + " | " +
             FormatNumber(Percentile(values, 0.99)) + " |\n";
    }
  }
  return out;
}

std::string RenderStoreSummary(const StoreSummary& summary) {
  std::string out = "## Durable store\n\n";
  out += "- path: `" + summary.path + "`\n";
  out += "- last LSN: " + std::to_string(summary.last_lsn) + "\n";
  out += "- recovery: ";
  out += summary.loaded_snapshot ? "checkpoint + wal replay" : "wal replay";
  if (summary.recovered_torn_tail) out += " (torn tail truncated)";
  out += "\n";
  out += "- persisted base tasks: " + std::to_string(summary.tasks) + "\n";
  out += "- recovery read: " + std::to_string(summary.recovery_bytes_read) +
         " byte(s); " + std::to_string(summary.observations_in_memory) +
         " observation(s) in memory\n";
  out += "- data log: " + std::to_string(summary.data_log_bytes) +
         " byte(s), " + std::to_string(summary.dead_bytes) +
         " dead, " + std::to_string(summary.compactions) +
         " compaction(s); " + std::to_string(summary.sealed_sessions) +
         " sealed session(s)\n\n";
  if (summary.sessions.empty()) {
    out += "No recorded sessions.\n";
    return out;
  }
  out += "| session | dims | observations | state |\n";
  out += "|---|---|---|---|\n";
  for (const StoreSummary::Session& session : summary.sessions) {
    out += "| " + session.id + " | " + std::to_string(session.dimension) +
           " | " + std::to_string(session.observations) + " | " +
           (session.finished ? "finished" : "in-flight") + " |\n";
  }
  return out;
}

}  // namespace dbtune_report
