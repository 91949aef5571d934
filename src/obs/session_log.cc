#include "obs/session_log.h"

#include "util/logging.h"

namespace dbtune::obs {

SessionLogger::SessionLogger(const std::string& path) {
  if (path.empty()) return;
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) {
    DBTUNE_LOG(kWarning) << "session log disabled: cannot open " << path;
  }
}

SessionLogger::~SessionLogger() { Close(); }

SessionLogger::SessionLogger(SessionLogger&& other) noexcept
    : file_(other.file_) {
  other.file_ = nullptr;
}

SessionLogger& SessionLogger::operator=(SessionLogger&& other) noexcept {
  if (this != &other) {
    Close();
    file_ = other.file_;
    other.file_ = nullptr;
  }
  return *this;
}

void SessionLogger::Close() {
  if (file_ != nullptr) {
    const bool flushed = std::fflush(file_) == 0;
    const bool closed = std::fclose(file_) == 0;
    if (!flushed || !closed) {
      DBTUNE_LOG(kWarning) << "session log lost buffered data on close";
    }
    file_ = nullptr;
  }
}

void SessionLogger::Log(const SessionIterationRecord& record) {
  if (file_ == nullptr) return;
  // Fixed field order and formats: the line layout is part of the
  // deterministic-output contract. The diagnostics fields are additive
  // and versioned — with diagnostics off, the line is byte-identical to
  // the pre-diagnostics format.
  bool ok =
      std::fprintf(file_,
                   "{\"iter\":%zu,\"suggest_s\":%.9f,\"evaluate_s\":%.9f,"
                   "\"observe_s\":%.9f,\"score\":%.9g,\"best_score\":%.9g,"
                   "\"improvement_pct\":%.9g",
                   record.iteration, record.suggest_seconds,
                   record.evaluate_seconds, record.observe_seconds,
                   record.score, record.best_score,
                   record.improvement_percent) >= 0;
  if (ok && record.has_diagnostics) {
    const IterationDiagnostics& d = record.diagnostics;
    ok = std::fprintf(
             file_,
             ",\"diag_v\":%d,\"pred\":%d,\"zres\":%.9g,\"nlpd\":%.9g,"
             "\"cov68\":%.9g,\"cov95\":%.9g,\"regret\":%.9g,"
             "\"cum_regret\":%.9g,"
             "\"stall\":%zu,\"ewma_improve\":%.9g,\"acq_best\":%.9g,"
             "\"acq_spread\":%.9g,\"inc_fit_rate\":%.9g,"
             "\"hyperopt_runs\":%llu",
             kDiagnosticsSchemaVersion, d.has_prediction ? 1 : 0,
             d.standardized_residual, d.nlpd, d.coverage68, d.coverage95,
             d.simple_regret, d.cumulative_regret,
             d.iterations_since_improvement, d.improvement_ewma,
             d.acquisition_best, d.acquisition_spread,
             d.incremental_fit_rate,
             static_cast<unsigned long long>(d.hyperopt_runs)) >= 0;
  }
  ok = ok && std::fputs("}\n", file_) >= 0;
  ok = ok && std::fflush(file_) == 0;
  if (!ok) {
    // A half-written line would corrupt every later record's framing, so
    // the logger stops rather than keep appending after the first error.
    DBTUNE_LOG(kWarning) << "session log disabled: write failed";
    Close();
  }
}

}  // namespace dbtune::obs
