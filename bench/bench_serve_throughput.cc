// Serving-layer throughput bench: cross-session batching (batch width
// 64) against the sequential baseline (batch width 1, one session per
// wave), with every served trajectory bitwise identical to the
// standalone in-process loop. Sweeps 16/64/256 concurrent sessions,
// pool sizes 1/2/4, and both widths; each row reports sessions/sec,
// requests/sec, and suggest p50/p99 from the serve.suggest.latency
// histogram. Emits JSON lines to stdout and
// writes them to DBTUNE_BENCH_SERVE_REPORT (default BENCH_SERVE.json in
// the working directory) for CI artifacts. Quick mode:
// DBTUNE_BENCH_SCALE below 0.3 shrinks session counts and iterations
// proportionally.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "knobs/catalog.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "serve/batch_scheduler.h"
#include "serve/session_manager.h"
#include "util/thread_pool.h"

namespace dbtune {
namespace {

using serve::BatchScheduler;
using serve::SchedulerOptions;
using serve::ServedSessionOptions;
using serve::SessionManager;

// Every row records the host's CPUs: a wide wave's whole-session fan-out
// converts cores into sessions/sec, so the width-64 vs. width-1 ratio a
// report shows is bounded by that number.
using bench::HostCpus;

using bench::Effective;

bench::JsonReport g_report;

std::vector<size_t> FirstKnobs(size_t n) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  return idx;
}

// One client per served session: the environment that evaluates the
// server's suggestions. Seeds are a function of the session index so
// every batch width replays the same fleet.
struct Client {
  std::unique_ptr<DbmsSimulator> simulator;
  std::unique_ptr<TuningEnvironment> env;
};

Client MakeClient(size_t index) {
  Client client;
  client.simulator = std::make_unique<DbmsSimulator>(
      SmallTestCatalog(), WorkloadId::kSysbench, HardwareInstance::kB,
      2000 + index);
  client.env = std::make_unique<TuningEnvironment>(
      client.simulator.get(),
      FirstKnobs(client.simulator->space().dimension()));
  return client;
}

std::string SessionId(size_t index) {
  char id[32];
  std::snprintf(id, sizeof(id), "bench-%04zu", index);
  return id;
}

ServedSessionOptions SessionOptions(size_t index, const Client& client) {
  ServedSessionOptions options;
  options.space_name = "small";
  options.optimizer_type = OptimizerType::kVanillaBo;
  options.seed = 1000 + index;
  options.reference_score = client.env->default_score();
  return options;
}

// The ground truth every served combo is checked against: the standalone
// loop of core/tuning_session, one session at a time on a 1-thread pool.
std::vector<std::vector<Observation>> StandaloneHistories(size_t sessions,
                                                          size_t iterations) {
  const size_t original = ExecutionContext::Get().num_threads();
  ExecutionContext::Get().SetNumThreads(1);
  std::vector<std::vector<Observation>> histories(sessions);
  for (size_t s = 0; s < sessions; ++s) {
    Client client = MakeClient(s);
    OptimizerOptions options;
    options.seed = 1000 + s;
    std::unique_ptr<Optimizer> optimizer = CreateOptimizer(
        OptimizerType::kVanillaBo, client.env->space(), options);
    RunTuningSession(client.env.get(), optimizer.get(), iterations);
    histories[s] = client.env->history();
  }
  ExecutionContext::Get().SetNumThreads(original);
  return histories;
}

bool HistoriesEqual(const std::vector<std::vector<Observation>>& a,
                    const std::vector<std::vector<Observation>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t s = 0; s < a.size(); ++s) {
    if (a[s].size() != b[s].size()) return false;
    for (size_t i = 0; i < a[s].size(); ++i) {
      if (!(a[s][i].config == b[s][i].config) ||
          a[s][i].score != b[s][i].score ||
          a[s][i].objective != b[s][i].objective ||
          a[s][i].failed != b[s][i].failed ||
          a[s][i].internal_metrics != b[s][i].internal_metrics) {
        return false;
      }
    }
  }
  return true;
}

struct ComboOutcome {
  double elapsed_s = 0.0;
  double suggest_p50_s = 0.0;
  double suggest_p99_s = 0.0;
  std::vector<std::vector<Observation>> histories;
};

// Drives `sessions` concurrent tuning loops through the serving layer
// for `iterations` rounds at the current pool size. Only the serve loop
// (suggest + observe dispatch and the client evaluations between them)
// is timed; fleet setup is not.
ComboOutcome RunServed(size_t sessions, size_t iterations,
                       size_t batch_width) {
  SessionManager manager;
  std::vector<Client> clients;
  clients.reserve(sessions);
  for (size_t s = 0; s < sessions; ++s) clients.push_back(MakeClient(s));
  manager.RegisterSpace("small", clients.front().env->space());
  for (size_t s = 0; s < sessions; ++s) {
    if (!manager.CreateSession(SessionId(s), SessionOptions(s, clients[s]))
             .ok()) {
      std::fprintf(stderr, "create session failed\n");
      std::exit(1);
    }
  }
  SchedulerOptions scheduler_options;
  scheduler_options.batch_width = batch_width;
  BatchScheduler scheduler(&manager, scheduler_options);

  obs::Histogram& latency =
      obs::MetricsRegistry::Get().histogram("serve.suggest.latency");
  latency.Reset();

  std::vector<uint64_t> tickets(sessions);
  std::vector<Observation> outcomes(sessions);
  const double start = obs::MonotonicSeconds();
  for (size_t iter = 0; iter < iterations; ++iter) {
    for (size_t s = 0; s < sessions; ++s) {
      tickets[s] = scheduler.EnqueueSuggest(SessionId(s));
    }
    scheduler.Drain();
    for (size_t s = 0; s < sessions; ++s) {
      Result<Configuration> suggested = scheduler.TakeSuggest(tickets[s]);
      if (!suggested.ok()) {
        std::fprintf(stderr, "suggest failed: %s\n",
                     suggested.status().ToString().c_str());
        std::exit(1);
      }
      outcomes[s] = clients[s].env->Evaluate(*suggested);
    }
    for (size_t s = 0; s < sessions; ++s) {
      tickets[s] = scheduler.EnqueueObserve(SessionId(s), outcomes[s]);
    }
    scheduler.Drain();
    for (size_t s = 0; s < sessions; ++s) {
      if (!scheduler.TakeObserve(tickets[s]).ok()) {
        std::fprintf(stderr, "observe failed\n");
        std::exit(1);
      }
    }
  }

  ComboOutcome outcome;
  outcome.elapsed_s = obs::MonotonicSeconds() - start;
  outcome.suggest_p50_s = latency.Percentile(0.5);
  outcome.suggest_p99_s = latency.Percentile(0.99);
  outcome.histories.reserve(sessions);
  for (Client& client : clients) {
    outcome.histories.push_back(client.env->history());
  }
  return outcome;
}

void BenchServeThroughput() {
  const size_t iterations = Effective(20, 12);
  const std::vector<size_t> session_counts = {
      Effective(16, 4), Effective(64, 8), Effective(256, 16)};
  // Standalone baselines per session count, shared across pool sizes and
  // batch widths.
  std::map<size_t, std::vector<std::vector<Observation>>> baselines;
  for (size_t sessions : session_counts) {
    baselines[sessions] = StandaloneHistories(sessions, iterations);
  }

  constexpr size_t kWidths[2] = {1, 64};
  for (size_t threads : {1u, 2u, 4u}) {
    const size_t original = ExecutionContext::Get().num_threads();
    ExecutionContext::Get().SetNumThreads(threads);
    for (size_t sessions : session_counts) {
      double per_width_rate[2] = {0.0, 0.0};
      bool per_width_identical[2] = {false, false};
      for (size_t w = 0; w < 2; ++w) {
        const ComboOutcome outcome =
            RunServed(sessions, iterations, kWidths[w]);
        const bool identical =
            HistoriesEqual(baselines[sessions], outcome.histories);
        const double sessions_per_sec =
            outcome.elapsed_s > 0.0
                ? static_cast<double>(sessions) / outcome.elapsed_s
                : 0.0;
        const double requests_per_sec =
            outcome.elapsed_s > 0.0
                ? static_cast<double>(2 * sessions * iterations) /
                      outcome.elapsed_s
                : 0.0;
        per_width_rate[w] = sessions_per_sec;
        per_width_identical[w] = identical;
        char line[512];
        std::snprintf(
            line, sizeof(line),
            "{\"bench\":\"serve_throughput\",\"task\":\"loop\","
            "\"sessions\":%zu,\"iterations\":%zu,\"threads\":%zu,"
            "\"host_cpus\":%zu,\"batch_width\":%zu,\"elapsed_s\":%.6f,"
            "\"sessions_per_sec\":%.2f,\"requests_per_sec\":%.1f,"
            "\"suggest_p50_ms\":%.4f,\"suggest_p99_ms\":%.4f,"
            "\"identical\":%s}\n",
            sessions, iterations, threads, HostCpus(),
            kWidths[w], outcome.elapsed_s,
            sessions_per_sec, requests_per_sec, outcome.suggest_p50_s * 1e3,
            outcome.suggest_p99_s * 1e3, identical ? "true" : "false");
        g_report.Emit(line);
      }
      char line[512];
      std::snprintf(
          line, sizeof(line),
          "{\"bench\":\"serve_throughput\",\"task\":\"speedup\","
          "\"sessions\":%zu,\"threads\":%zu,\"host_cpus\":%zu,"
          "\"width64_sessions_per_sec\":%.2f,"
          "\"width1_sessions_per_sec\":%.2f,\"speedup\":%.2f,"
          "\"identical\":%s}\n",
          sessions, threads, HostCpus(), per_width_rate[1], per_width_rate[0],
          per_width_rate[0] > 0.0 ? per_width_rate[1] / per_width_rate[0]
                                  : 0.0,
          per_width_identical[0] && per_width_identical[1] ? "true"
                                                           : "false");
      g_report.Emit(line);
    }
    ExecutionContext::Get().SetNumThreads(original);
  }
}

}  // namespace
}  // namespace dbtune

int main() {
  dbtune::bench::Banner(
      "Serving-layer throughput: batch width 64 vs. width 1",
      "16/64/256 concurrent GP-BO sessions through the SessionManager + "
      "BatchScheduler, pool sizes 1/2/4, each trajectory checked bitwise "
      "against the standalone loop");
  // The suggest-latency percentiles come from the serve histogram.
  dbtune::obs::SetMetricsEnabled(true);
  dbtune::BenchServeThroughput();
  return dbtune::g_report.Finish("DBTUNE_BENCH_SERVE_REPORT",
                                 "BENCH_SERVE.json");
}
