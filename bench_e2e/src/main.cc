// End-to-end benchmark of served tuning sessions.
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>] [--scale <f>] [--trace-out <file>]
//
// Drives one workload through the real served path (client Encode* ->
// LoopbackTransport -> FrameServer::ServeBuffered -> BatchScheduler ->
// SessionManager -> optimizer -> surrogate -> ObservationStore ->
// response Decode*), checks every served trajectory bitwise against the
// standalone RunTuningSession loop, and prints one JSON line per metric
// followed by the summary object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// as the last line. --trace 0 prints the end-to-end metrics; --trace 1
// runs a traced pass plus layer replays and prints the per-layer ones.
// Exits non-zero on any failed request or trajectory mismatch.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "layers.h"
#include "served_pass.h"
#include "util/thread_pool.h"

namespace dbtune::e2e {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/e2e-work";
  double scale = 1.0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else if (key == "--scale") {
      args->scale = std::atof(value.c_str());
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seed > 0 &&
         args->seconds > 0.0 && args->scale > 0.0;
}

/// Set-up trials after each pass: at least kSetupTrialsPerPass and until
/// kSetupSecondsPerPass of set-up have been measured. Set-up takes
/// milliseconds on one thread, and its speed jumps between plateaus as
/// the host moves that thread, so its median needs many trials spread
/// over the whole run.
constexpr size_t kSetupTrialsPerPass = 3;
constexpr double kSetupSecondsPerPass = 0.1;

/// Passes per run: at least kMinPasses, so every step has repeats to
/// choose from; at most kMaxPasses, so a tiny scale cannot spin for long.
constexpr size_t kMinPasses = 5;
constexpr size_t kMaxPasses = 64;

double Ms(double seconds) { return seconds * 1e3; }

/// Element-wise minimum over passes of one per-pass series: entry i is
/// the fastest of every pass's entry i. Passes of one run repeat the same
/// requests in the same order, so entry i is the same work in each, and
/// what a repeat takes beyond the fastest is interference from outside:
/// on a shared host, CPU speed drifts by 10-20% over seconds. Empty when
/// the passes' series differ in length.
std::vector<double> FastestSteps(const std::vector<PassResult>& passes,
                                 std::vector<double> PassResult::*series) {
  const size_t length = (passes.front().*series).size();
  for (const PassResult& pass : passes) {
    if ((pass.*series).size() != length) return {};
  }
  std::vector<double> fastest = passes.front().*series;
  for (const PassResult& pass : passes) {
    for (size_t i = 0; i < length; ++i) {
      fastest[i] = std::min(fastest[i], (pass.*series)[i]);
    }
  }
  return fastest;
}

void PrintMetricLine(const std::string& workload, const Metric& m) {
  std::printf(
      "{\"workload\":\"%s\",\"metric\":\"%s\",\"value\":%.17g,"
      "\"unit\":\"%s\",\"samples\":%zu}\n",
      workload.c_str(), m.name.c_str(), m.value, m.unit.c_str(), m.samples);
}

/// Prints every metric as its own line, then the summary object (the last
/// line of the output).
void PrintResult(const Args& args, const MetricSink& sink, bool correct,
                 size_t attempted, size_t failed) {
  for (const Metric& m : sink.metrics()) PrintMetricLine(args.workload, m);
  std::string metrics;
  for (const Metric& m : sink.metrics()) {
    if (!metrics.empty()) metrics += ",";
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", m.name.c_str(),
                  m.value, m.unit.c_str());
    metrics += entry;
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":{%s}}\n",
      correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
}

/// The untraced run: at least kMinPasses passes of the workload and until
/// `seconds` of timed phase have elapsed, each checked bitwise against
/// the standalone loop. Every pass repeats the same requests, so the
/// timed-phase metrics come from the fastest repeat of each step
/// (FastestSteps): the rate from the summed fastest steps, the latency
/// percentiles from each request's fastest latency, the restart from the
/// fastest restart. Set-up reports the median of every trial in the run.
int RunEndToEnd(const Args& args, const WorkloadSpec& spec,
                const std::vector<SessionSpec>& sessions) {
  std::vector<PassResult> passes;
  std::vector<double> setup;
  std::vector<double> restart;
  std::vector<double> written_mb;
  double timed = 0.0;
  double peak_rss_mb = 0.0;
  size_t attempted = 0;
  size_t failed = 0;
  std::string error;
  while (failed == 0 && passes.size() < kMaxPasses &&
         (passes.size() < kMinPasses || timed < args.seconds)) {
    const size_t p = passes.size();
    passes.push_back(RunPass(spec, sessions,
                             args.workdir + "/pass-" + std::to_string(p),
                             nullptr));
    const PassResult& pass = passes.back();
    // Memory a process needs to serve the workload once; later passes
    // only add what the allocator kept from earlier ones.
    if (p == 0) peak_rss_mb = PeakRssMb();
    timed += pass.timed_s;
    setup.push_back(pass.setup_s);
    restart.insert(restart.end(), pass.restart_s.begin(),
                   pass.restart_s.end());
    written_mb.push_back(static_cast<double>(pass.written_bytes) / 1e6);
    attempted += pass.attempted;
    failed += pass.failed;
    error = pass.error;
    std::printf(
        "{\"workload\":\"%s\",\"pass\":%zu,\"setup_s\":%.6f,"
        "\"timed_s\":%.6f,\"iterations\":%zu}\n",
        args.workload.c_str(), p, pass.setup_s, pass.timed_s, pass.iterations);
    double trials_s = 0.0;
    for (size_t trial = 0; failed == 0 && (trial < kSetupTrialsPerPass ||
                                           trials_s < kSetupSecondsPerPass);
         ++trial) {
      const double elapsed =
          MeasureSetup(spec, sessions, args.workdir + "/setup");
      if (elapsed < 0.0) {
        ++failed;
        error = "set-up trial failed";
      }
      setup.push_back(elapsed);
      trials_s += elapsed;
    }
  }

  const std::vector<double> steps = FastestSteps(passes, &PassResult::step_s);
  const std::vector<double> suggest =
      FastestSteps(passes, &PassResult::suggest_s);
  const std::vector<double> observe =
      FastestSteps(passes, &PassResult::observe_s);
  bool correct = failed == 0;
  if (correct && (steps.empty() || suggest.empty() || observe.empty())) {
    correct = false;
    error = "passes of one seed differ in their request sequence";
  }
  if (correct) {
    const auto expected = StandaloneHistories(spec, sessions);
    for (size_t p = 0; p < passes.size() && correct; ++p) {
      std::string where;
      if (!HistoriesEqual(expected, passes[p].histories, &where)) {
        correct = false;
        error = "pass " + std::to_string(p) +
                " diverges from the standalone loop at " + where;
      }
    }
  }
  if (!error.empty()) std::fprintf(stderr, "bench_e2e: %s\n", error.c_str());

  const size_t n = passes.size();
  MetricSink sink;
  sink.Add("setup_s", Median(setup), "s", setup.size());
  const double step_sum = Sum(steps);
  sink.Add("iterations_per_s",
           step_sum > 0.0
               ? static_cast<double>(passes.front().iterations) / step_sum
               : 0.0,
           "1/s", n);
  sink.Add("suggest_p50_ms", Ms(Quantile(suggest, 0.5)), "ms", suggest.size());
  sink.Add("suggest_p99_ms", Ms(Quantile(suggest, 0.99)), "ms",
           suggest.size());
  sink.Add("observe_p99_ms", Ms(Quantile(observe, 0.99)), "ms",
           observe.size());
  sink.Add("restart_s", Quantile(restart, 0.0), "s", restart.size());
  sink.Add("improvement_pct_median", Median(passes.front().improvements), "%",
           passes.front().improvements.size());
  sink.Add("peak_rss_mb", peak_rss_mb, "MB", 1);
  sink.Add("disk_write_mb", Median(written_mb), "MB", n);
  // Printed, but not in the summary nor bounded in BENCHMARK.json:
  // failed_frac is 0 on every correct run, and on lockstep workloads an
  // observe round is a few tenths of a millisecond of thread wake-ups
  // whose run-to-run spread on a shared host exceeds any useful bound.
  PrintMetricLine(args.workload,
                  Metric{"failed_frac",
                         attempted > 0 ? static_cast<double>(failed) /
                                             static_cast<double>(attempted)
                                       : 1.0,
                         "ratio", attempted});
  PrintMetricLine(args.workload, Metric{"observe_p50_ms",
                                        Ms(Quantile(observe, 0.5)), "ms",
                                        observe.size()});
  PrintResult(args, sink, correct, std::max<size_t>(attempted, 1), failed);
  return correct ? 0 : 1;
}

int RunTraced(const Args& args, const WorkloadSpec& spec,
              const std::vector<SessionSpec>& sessions, size_t lanes) {
  const auto expected = StandaloneHistories(spec, sessions);
  MetricSink sink;
  const LayerRunResult result = RunLayers(spec, sessions, expected,
                                          args.workdir, lanes, args.trace_out,
                                          &sink);
  if (!result.error.empty()) {
    std::fprintf(stderr, "bench_e2e: %s\n", result.error.c_str());
  }
  PrintResult(args, sink, result.correct,
              std::max<size_t>(result.attempted, 1), result.failed);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace dbtune::e2e

int main(int argc, char** argv) {
  using namespace dbtune::e2e;  // dbtune-lint: allow(using-namespace)
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--workdir <dir>] [--scale <f>] "
                 "[--trace-out <file>]\n");
    return 2;
  }
  const WorkloadSpec spec = MakeWorkload(args.workload, args.scale);
  if (spec.name.empty()) {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  // Server lanes: at most four and never more than the host has, so the
  // client thread plus the pool never oversubscribe the CPUs while a
  // wave runs (the client thread is blocked inside it).
  const size_t lanes = std::min<size_t>(4, HostCpus());
  dbtune::ExecutionContext::Get().SetNumThreads(lanes);
  const std::vector<SessionSpec> sessions = MakeSessions(spec, args.seed);
  std::printf(
      "{\"bench\":\"e2e\",\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
      "\"host_cpus\":%zu,\"threads\":%zu,\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"slots\":%zu,\"sessions\":%zu,"
      "\"iterations\":%zu}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, HostCpus(), lanes, __VERSION__,
      DBTUNE_E2E_BUILD_TYPE, spec.slots, spec.sessions, spec.iterations);
  std::filesystem::remove_all(args.workdir);
  const int code = args.trace ? RunTraced(args, spec, sessions, lanes)
                              : RunEndToEnd(args, spec, sessions);
  std::filesystem::remove_all(args.workdir);
  return code;
}
