// CLI: dbtune_report [-o report.md] [--store wal] [session.jsonl ...]
//
// Ingests session JSONL files written by obs::SessionLogger and renders
// a markdown report (best-score sparklines, diagnostics summary, latency
// percentiles). With --store, appends a summary of the durable
// observation store at that path (sessions, recovery state, base-task
// pool). Writes to stdout unless -o is given. Exits nonzero when an
// input cannot be read or the output cannot be written in full.

#include "dbtune_report_lib.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "store/observation_store.h"

namespace {

constexpr char kUsage[] =
    "usage: dbtune_report [-o report.md] [--store wal] [session.jsonl ...]\n";

/// Flattens the opened store into the report library's plain-data form.
dbtune_report::StoreSummary SummarizeStore(
    const dbtune::store::ObservationStore& store) {
  dbtune_report::StoreSummary summary;
  summary.path = store.path();
  const dbtune::store::StoreStats stats = store.stats();
  summary.last_lsn = stats.last_lsn;
  summary.loaded_snapshot = stats.loaded_snapshot;
  summary.recovered_torn_tail = stats.recovered_torn_tail;
  summary.tasks = store.num_tasks();
  summary.sealed_sessions = stats.sealed_sessions;
  summary.data_log_bytes = stats.data_log_bytes;
  summary.dead_bytes = stats.dead_bytes;
  summary.compactions = stats.compactions;
  summary.recovery_bytes_read = stats.recovery_bytes_read;
  summary.observations_in_memory = stats.observations_in_memory;
  for (const dbtune::store::StoredSessionInfo& info : store.ListSessions()) {
    dbtune_report::StoreSummary::Session session;
    session.id = info.id;
    session.dimension = info.dimension;
    session.observations = info.observations;
    session.finished = info.finished;
    summary.sessions.push_back(std::move(session));
  }
  return summary;
}

/// Writes `report` to `path` ("" = stdout), checking every byte landed.
int WriteReport(const std::string& report, const std::string& path) {
  if (path.empty()) {
    const size_t written =
        std::fwrite(report.data(), 1, report.size(), stdout);
    if (written != report.size() || std::fflush(stdout) != 0) {
      std::fprintf(stderr, "dbtune_report: short write to stdout\n");
      return 1;
    }
    return 0;
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "dbtune_report: cannot write %s\n", path.c_str());
    return 1;
  }
  const size_t written = std::fwrite(report.data(), 1, report.size(), out);
  const bool closed = std::fclose(out) == 0;
  if (written != report.size() || !closed) {
    std::fprintf(stderr, "dbtune_report: short write to %s\n", path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string output_path;
  std::string store_path;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o" && i + 1 < argc) {
      output_path = argv[++i];
    } else if (arg == "--store" && i + 1 < argc) {
      store_path = argv[++i];
    } else if (arg == "-h" || arg == "--help") {
      std::fprintf(stderr, "%s", kUsage);
      return 0;
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty() && store_path.empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  std::vector<dbtune_report::SessionData> sessions;
  sessions.reserve(inputs.size());
  for (const std::string& path : inputs) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "dbtune_report: cannot open %s\n", path.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    sessions.push_back(
        dbtune_report::ParseSessionJsonl(path, buffer.str()));
  }

  std::string report;
  if (!sessions.empty()) {
    report = dbtune_report::RenderMarkdownReport(sessions);
  }
  if (!store_path.empty()) {
    auto opened = dbtune::store::ObservationStore::Open(store_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "dbtune_report: cannot open store %s: %s\n",
                   store_path.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    if (!report.empty()) report += "\n";
    report += dbtune_report::RenderStoreSummary(SummarizeStore(**opened));
  }
  return WriteReport(report, output_path);
}
