#ifndef DBTUNE_BENCH_BENCH_UTIL_H_
#define DBTUNE_BENCH_BENCH_UTIL_H_

// Shared helpers for the experiment-reproduction benches. Every bench
// follows the paper's protocol but scales budgets by DBTUNE_BENCH_SCALE
// (default 0.3) so the full suite runs in minutes on a laptop; set
// DBTUNE_BENCH_SCALE=1 to replicate the paper's iteration counts exactly.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/tuning_session.h"
#include "dbms/environment.h"
#include "importance/importance.h"
#include "sampling/latin_hypercube.h"
#include "surrogate/regressor.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace dbtune::bench {

/// Budget multiplier from DBTUNE_BENCH_SCALE (clamped to [0.05, 2]).
inline double Scale() {
  static const double scale = [] {
    const char* env = std::getenv("DBTUNE_BENCH_SCALE");
    double value = env ? std::atof(env) : 0.3;
    if (value <= 0.0) value = 0.3;
    return std::clamp(value, 0.05, 2.0);
  }();
  return scale;
}

/// Paper iteration count scaled down, with a floor.
inline size_t ScaledIters(size_t paper_iterations, size_t floor = 40) {
  const auto scaled =
      static_cast<size_t>(static_cast<double>(paper_iterations) * Scale());
  return std::max(scaled, std::min(floor, paper_iterations));
}

/// Paper sample count scaled down, with a floor.
inline size_t ScaledSamples(size_t paper_samples, size_t floor = 300) {
  const auto scaled =
      static_cast<size_t>(static_cast<double>(paper_samples) * Scale());
  return std::max(scaled, std::min(floor, paper_samples));
}

/// Paper repetition count scaled (>= 2 so quartiles exist).
inline int ScaledRuns(int paper_runs) {
  return std::max(2, static_cast<int>(paper_runs * Scale() + 0.5));
}

/// Micro-bench size: `full` at the default scale (0.3) and above, shrunk
/// in proportion below it (the perf-labelled quick ctests run at 0.05),
/// never under `floor_value`.
inline size_t Effective(size_t full, size_t floor_value) {
  const double factor = std::min(1.0, Scale() / 0.3);
  const auto scaled = static_cast<size_t>(static_cast<double>(full) * factor);
  return std::max(floor_value, scaled);
}

/// `n` seeded rows of `d` uniform [0, 1) inputs, for surrogate micro-benches.
inline FeatureMatrix RandomInputs(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  FeatureMatrix x(n, std::vector<double>(d));
  for (auto& row : x) {
    for (double& v : row) v = rng.Uniform();
  }
  return x;
}

/// CPUs this process may run on (what `nproc` prints), recorded in every
/// micro-bench row: thread-scaling numbers are bounded by it.
inline size_t HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int count = CPU_COUNT(&set);
  return count > 0 ? static_cast<size_t>(count) : 1;
}

/// JSON-lines report of a micro-bench: every row goes to stdout and to a
/// report file. A row that says "identical":false, or a report file that
/// cannot be written completely, makes `Finish` return a non-zero exit
/// code, so a perf smoke test fails on an identity break.
class JsonReport {
 public:
  void Emit(const char* line) {
    std::printf("%s", line);
    text_ += line;
    if (std::string(line).find("\"identical\":false") != std::string::npos) {
      identity_broken_ = true;
    }
  }

  /// Writes the report to the path in `env_name` (default `fallback`) and
  /// returns the process exit code.
  int Finish(const char* env_name, const char* fallback) const {
    const char* path = std::getenv(env_name);
    if (path == nullptr || path[0] == '\0') path = fallback;
    int code = 0;
    std::FILE* file = std::fopen(path, "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot open %s path %s\n", env_name, path);
      code = 1;
    } else {
      const bool written =
          std::fwrite(text_.data(), 1, text_.size(), file) == text_.size();
      if (std::fclose(file) != 0 || !written) {
        std::fprintf(stderr, "failed writing report %s\n", path);
        code = 1;
      } else {
        std::printf("report written to %s\n", path);
      }
    }
    if (identity_broken_) {
      std::fprintf(stderr, "a row says identical:false\n");
      code = 1;
    }
    return code;
  }

 private:
  std::string text_;
  bool identity_broken_ = false;
};

/// Prints the standard bench banner.
inline void Banner(const char* experiment, const char* paper_setup) {
  std::printf("=== %s ===\n", experiment);
  std::printf("paper setup: %s\n", paper_setup);
  std::printf("scale: %.2f (set DBTUNE_BENCH_SCALE to change)\n\n", Scale());
}

/// Collects an importance-measurement training set over the full catalog:
/// LHS samples evaluated on the simulator (the paper's 6250-sample
/// protocol, scaled).
struct ImportanceData {
  std::vector<Configuration> configs;
  std::vector<double> scores;
  double default_score = 0.0;
};

inline ImportanceData CollectImportanceData(DbmsSimulator* sim,
                                            size_t samples, uint64_t seed) {
  TuningEnvironment env(sim);
  Rng rng(seed);
  ImportanceData data;
  for (const Configuration& c :
       LatinHypercubeSample(sim->space(), samples, rng)) {
    const Observation obs = env.Evaluate(c);
    data.configs.push_back(obs.config);
    data.scores.push_back(obs.score);
  }
  data.default_score = env.default_score();
  return data;
}

/// Median final improvement over several seeded sessions of one optimizer
/// on one knob subset; optionally fills best-so-far traces (median run).
struct SessionSummary {
  double median_improvement = 0.0;
  double median_best_iteration = 0.0;
  std::vector<SessionResult> runs;
};

inline SessionSummary RunSessions(WorkloadId workload,
                                  HardwareInstance hardware,
                                  const std::vector<size_t>& knobs,
                                  OptimizerType optimizer, size_t iterations,
                                  int num_runs, uint64_t seed_base) {
  SessionSummary summary;
  summary.runs.resize(static_cast<size_t>(num_runs));
  // Replications are fully independent (each owns its simulator and its
  // seed) and land in their run slot, so the summary is identical to the
  // sequential loop at any pool size.
  ParallelFor(GlobalPool(), 0, static_cast<size_t>(num_runs), /*grain=*/1,
              [&](size_t begin, size_t end) {
                for (size_t run = begin; run < end; ++run) {
                  DbmsSimulator sim(workload, hardware,
                                    seed_base + 1000 * run);
                  summary.runs[run] = RunTuningSession(
                      &sim, knobs, optimizer, iterations, seed_base + run);
                }
              });
  std::vector<double> improvements, best_iters;
  for (const SessionResult& run : summary.runs) {
    improvements.push_back(run.final_improvement);
    best_iters.push_back(static_cast<double>(run.best_iteration));
  }
  summary.median_improvement = Median(improvements);
  summary.median_best_iteration = Median(best_iters);
  return summary;
}

}  // namespace dbtune::bench

#endif  // DBTUNE_BENCH_BENCH_UTIL_H_
