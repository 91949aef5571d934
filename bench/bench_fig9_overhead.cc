// Reproduces Figure 9: algorithm overhead — wall-clock time an optimizer
// needs to generate the next configuration, as a function of how many
// observations it has already accumulated (JOB, medium 20-knob space).
//
// Implemented with google-benchmark: each benchmark instantiates the
// optimizer, replays `history` observations into it, and times Suggest().
//
// Expected shape: the global GP methods (vanilla / mixed-kernel BO) grow
// cubically with the iteration count; SMAC, TPE, DDPG and GA stay flat;
// TuRBO stays moderate thanks to its local models.

// In addition to the google-benchmark suite, the binary opens with a
// thread-scaling report: GP fit, RF fit, and one full BO iteration timed
// at 1, 2, and hardware_concurrency() pool threads, emitted as JSON lines
// so the bench trajectory can track the parallel-layer speedup. Timing
// flows through the obs metrics registry (not ad-hoc clock reads): each
// task reports its total seconds plus a per-phase breakdown from the
// instrumented gp.fit / gp.predict / forest.fit / optimizer.suggest.*
// histograms. Set DBTUNE_FIG9_REPORT=<path> to also write the JSON lines
// to a file (CI uploads it as an artifact). The binary exits 1 when a row
// differs from its 1-thread result or a GP task reports no predict time.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <utility>

#include "bench_util.h"
#include "core/tuning_session.h"
#include "dbms/environment.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "knobs/catalog.h"
#include "optimizer/optimizer.h"
#include "sampling/latin_hypercube.h"
#include "surrogate/gaussian_process.h"
#include "surrogate/random_forest.h"
#include "util/thread_pool.h"

namespace {

using namespace dbtune;
using bench::RandomInputs;

// Medium configuration space: ground-truth top-20 tunable knobs of JOB.
const ConfigurationSpace& MediumSpace() {
  static const ConfigurationSpace* space = [] {
    DbmsSimulator sim(WorkloadId::kJob, HardwareInstance::kB, 1);
    const std::vector<size_t> ranking = sim.surface().TunabilityRanking();
    const std::vector<size_t> top20(ranking.begin(), ranking.begin() + 20);
    return new ConfigurationSpace(sim.space().Project(top20));
  }();
  return *space;
}

void BM_SuggestOverhead(benchmark::State& state, OptimizerType type) {
  const size_t history = static_cast<size_t>(state.range(0));
  const ConfigurationSpace& space = MediumSpace();

  // Pre-generate a deterministic observation history.
  DbmsSimulator sim(WorkloadId::kJob, HardwareInstance::kB, 2);
  const std::vector<size_t> ranking = sim.surface().TunabilityRanking();
  const std::vector<size_t> top20(ranking.begin(), ranking.begin() + 20);
  TuningEnvironment env(&sim, top20);
  Rng rng(3);
  std::vector<Configuration> configs;
  std::vector<Observation> observations;
  for (const Configuration& c : LatinHypercubeSample(space, history, rng)) {
    observations.push_back(env.Evaluate(c));
  }

  for (auto _ : state) {
    state.PauseTiming();
    OptimizerOptions options;
    options.seed = 7;
    // The history is injected directly, so skip the LHS warm start —
    // Suggest() must exercise the model-fit + acquisition path.
    options.initial_design = 0;
    std::unique_ptr<Optimizer> optimizer = CreateOptimizer(type, space,
                                                           options);
    for (const Observation& obs : observations) {
      optimizer->ObserveWithMetrics(obs.config, obs.score,
                                    obs.internal_metrics);
    }
    state.ResumeTiming();
    Configuration suggestion = optimizer->Suggest();
    benchmark::DoNotOptimize(suggestion);
  }
  state.counters["history"] = static_cast<double>(history);
}

void RegisterAll() {
  struct Entry {
    const char* name;
    OptimizerType type;
  };
  const Entry entries[] = {
      {"VanillaBO", OptimizerType::kVanillaBo},
      {"MixedKernelBO", OptimizerType::kMixedKernelBo},
      {"SMAC", OptimizerType::kSmac},
      {"TPE", OptimizerType::kTpe},
      {"TuRBO", OptimizerType::kTurbo},
      {"DDPG", OptimizerType::kDdpg},
      {"GA", OptimizerType::kGa},
  };
  for (const Entry& entry : entries) {
    auto* bench = benchmark::RegisterBenchmark(
        (std::string("Fig9/Suggest/") + entry.name).c_str(),
        [type = entry.type](benchmark::State& state) {
          BM_SuggestOverhead(state, type);
        });
    bench->Arg(50)->Arg(100)->Arg(200)->Arg(400);
    bench->Unit(benchmark::kMillisecond);
    bench->Iterations(3);
  }
}

// --- Thread-scaling report ------------------------------------------------

std::vector<double> SyntheticTargets(const FeatureMatrix& x) {
  std::vector<double> y;
  y.reserve(x.size());
  for (const auto& row : x) {
    double s = 0.0;
    for (size_t j = 0; j < row.size(); ++j) {
      s += std::sin(4.0 * row[j]) / static_cast<double>(j + 1);
    }
    y.push_back(s);
  }
  return y;
}

// One scaling task: total seconds, output checksum, and the per-phase
// seconds attributed by the obs registry. The checksum is compared across
// thread counts to assert bit-identical results.
struct TaskResult {
  double seconds = 0.0;
  double checksum = 0.0;
  std::vector<std::pair<std::string, double>> phases;
};

// A reported phase and the histograms whose sums make it up.
struct Phase {
  std::string name;
  std::vector<std::string> histograms;
};

Phase Single(const std::string& histogram) { return {histogram, {histogram}}; }

// GP prediction: scalar queries record gp.predict, and the acquisition
// sweep scores its candidates through PredictMeanVarBatch, which records
// gp.predict.batch instead.
const Phase kGpPredict = {"gp.predict", {"gp.predict", "gp.predict.batch"}};

double PhaseSum(const Phase& phase) {
  double sum = 0.0;
  for (const std::string& name : phase.histograms) {
    const dbtune::obs::Histogram* hist =
        dbtune::obs::MetricsRegistry::Get().FindHistogram(name);
    if (hist != nullptr) sum += hist->sum_seconds();
  }
  return sum;
}

// Runs `body` (which returns the checksum) and attributes its cost: total
// seconds from the obs clock, per-phase seconds as the delta of each
// phase's histogram sums across the run.
TaskResult MeasureWithRegistry(const std::vector<Phase>& phases,
                               const std::function<double()>& body) {
  std::vector<double> before(phases.size());
  for (size_t i = 0; i < phases.size(); ++i) before[i] = PhaseSum(phases[i]);
  TaskResult result;
  const double start = obs::MonotonicSeconds();
  result.checksum = body();
  result.seconds = obs::MonotonicSeconds() - start;
  for (size_t i = 0; i < phases.size(); ++i) {
    result.phases.emplace_back(phases[i].name,
                               PhaseSum(phases[i]) - before[i]);
  }
  return result;
}

double PhaseSeconds(const TaskResult& r, const std::string& name) {
  for (const auto& [phase, seconds] : r.phases) {
    if (phase == name) return seconds;
  }
  return 0.0;
}

TaskResult TimeGpFit(const FeatureMatrix& x, const std::vector<double>& y,
                     const FeatureMatrix& queries) {
  return MeasureWithRegistry({Single("gp.fit"), kGpPredict}, [&] {
    GaussianProcessOptions options;
    options.hyperopt_every = 1;
    GaussianProcess gp(std::make_unique<Matern52Kernel>(), options);
    if (!gp.Fit(x, y).ok()) return 0.0;
    double checksum = gp.log_marginal_likelihood();
    for (const auto& q : queries) {
      double mean = 0.0, var = 0.0;
      gp.PredictMeanVar(q, &mean, &var);
      checksum += mean + var;
    }
    return checksum;
  });
}

TaskResult TimeRfFit(const FeatureMatrix& x, const std::vector<double>& y,
                     const FeatureMatrix& queries) {
  return MeasureWithRegistry({Single("forest.fit")}, [&] {
    RandomForestOptions options;
    options.num_trees = 100;
    options.seed = 97;
    RandomForest forest(options);
    if (!forest.Fit(x, y).ok()) return 0.0;
    double checksum = 0.0;
    for (const auto& q : queries) {
      double mean = 0.0, var = 0.0;
      forest.PredictMeanVar(q, &mean, &var);
      checksum += mean + var;
    }
    return checksum;
  });
}

// One full BO iteration (surrogate fit + acquisition maximization) on a
// 200-observation history — the per-iteration wall clock that Figure 9
// tracks, for the optimizer `type`. `suggest_histogram` names the
// optimizer's instrumented suggest histogram for the phase breakdown.
TaskResult TimeBoIteration(OptimizerType type,
                           const std::string& suggest_histogram,
                           const std::vector<Observation>& observations) {
  const ConfigurationSpace& space = MediumSpace();
  OptimizerOptions options;
  options.seed = 7;
  options.initial_design = 0;
  std::unique_ptr<Optimizer> optimizer = CreateOptimizer(type, space, options);
  for (const Observation& obs : observations) {
    optimizer->ObserveWithMetrics(obs.config, obs.score,
                                  obs.internal_metrics);
  }
  return MeasureWithRegistry(
      {Single(suggest_histogram), Single("gp.fit"), kGpPredict,
       Single("forest.fit")},
      [&] {
        const Configuration suggestion = optimizer->Suggest();
        double checksum = 0.0;
        for (size_t i = 0; i < suggestion.size(); ++i) {
          checksum += suggestion[i] * static_cast<double>(i + 1);
        }
        return checksum;
      });
}

// The JSON report accumulates here; it is printed line by line and, when
// DBTUNE_FIG9_REPORT names a file, written there too for CI artifacts.
std::string g_report;

// Prints one report row; returns whether it matches the 1-thread run.
bool EmitScalingLine(const char* task, size_t threads, const TaskResult& r,
                     const TaskResult& baseline) {
  const bool identical = r.checksum == baseline.checksum;
  std::string phases = "{";
  for (size_t i = 0; i < r.phases.size(); ++i) {
    char entry[128];
    std::snprintf(entry, sizeof(entry), "%s\"%s\":%.6f", i == 0 ? "" : ",",
                  r.phases[i].first.c_str(), r.phases[i].second);
    phases += entry;
  }
  phases += "}";
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"fig9_thread_scaling\",\"task\":\"%s\","
      "\"threads\":%zu,\"seconds\":%.6f,\"speedup_vs_1t\":%.3f,"
      "\"identical_to_1t\":%s,\"phases_s\":%s}\n",
      task, threads, r.seconds,
      r.seconds > 0.0 ? baseline.seconds / r.seconds : 0.0,
      identical ? "true" : "false", phases.c_str());
  std::printf("%s", line);
  g_report += line;
  return identical;
}

void MaybeWriteReportFile() {
  const char* path = std::getenv("DBTUNE_FIG9_REPORT");
  if (path == nullptr || path[0] == '\0') return;
  std::FILE* file = std::fopen(path, "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot open DBTUNE_FIG9_REPORT path %s\n", path);
    return;
  }
  std::fwrite(g_report.data(), 1, g_report.size(), file);
  std::fclose(file);
  std::printf("report written to %s\n", path);
}

// Returns false when a row is not identical to its 1-thread run or a GP
// task spent no time in prediction.
bool RunThreadScalingReport() {
  // Phase attribution needs the instrumented histograms live for the
  // duration of the report; restore the ambient state afterwards so the
  // google-benchmark section runs exactly as configured.
  const bool metrics_were_enabled = dbtune::obs::MetricsEnabled();
  dbtune::obs::SetMetricsEnabled(true);
  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  std::vector<size_t> thread_counts = {1};
  if (hw >= 2) thread_counts.push_back(2);
  if (hw > 2) thread_counts.push_back(hw);

  // GP fit at n=500 and RF fit with 100 trees: the two surrogate costs
  // that dominate a BO iteration.
  const FeatureMatrix gp_x = RandomInputs(500, 20, 101);
  const std::vector<double> gp_y = SyntheticTargets(gp_x);
  const FeatureMatrix rf_x = RandomInputs(1000, 20, 103);
  const std::vector<double> rf_y = SyntheticTargets(rf_x);
  const FeatureMatrix queries = RandomInputs(50, 20, 107);

  DbmsSimulator sim(WorkloadId::kJob, HardwareInstance::kB, 2);
  const std::vector<size_t> ranking = sim.surface().TunabilityRanking();
  const std::vector<size_t> top20(ranking.begin(), ranking.begin() + 20);
  TuningEnvironment env(&sim, top20);
  Rng rng(3);
  std::vector<Observation> observations;
  for (const Configuration& c : LatinHypercubeSample(MediumSpace(), 200, rng)) {
    observations.push_back(env.Evaluate(c));
  }

  struct Task {
    const char* name;
    bool uses_gp;
    std::function<TaskResult()> run;
  };
  const std::vector<Task> tasks = {
      {"gp_fit_n500", true, [&] { return TimeGpFit(gp_x, gp_y, queries); }},
      {"rf_fit_100trees", false,
       [&] { return TimeRfFit(rf_x, rf_y, queries); }},
      {"bo_iteration_vanilla_bo", true,
       [&] {
         return TimeBoIteration(OptimizerType::kVanillaBo,
                                "optimizer.suggest.gp_bo", observations);
       }},
      {"bo_iteration_smac", false,
       [&] {
         return TimeBoIteration(OptimizerType::kSmac,
                                "optimizer.suggest.smac", observations);
       }},
  };
  bool ok = true;

  std::printf("--- thread scaling (JSON) ---\n");
  for (const Task& task : tasks) {
    TaskResult baseline;
    for (size_t threads : thread_counts) {
      ExecutionContext::Get().SetNumThreads(threads);
      // Warm-up run absorbs pool spin-up and cache effects; the timed
      // run follows.
      task.run();
      const TaskResult r = task.run();
      if (threads == 1) baseline = r;
      if (!EmitScalingLine(task.name, threads, r, baseline)) {
        std::fprintf(stderr, "%s at %zu threads differs from 1 thread\n",
                     task.name, threads);
        ok = false;
      }
      if (task.uses_gp && PhaseSeconds(r, kGpPredict.name) <= 0.0) {
        std::fprintf(stderr, "%s at %zu threads reports no gp.predict time\n",
                     task.name, threads);
        ok = false;
      }
    }
  }
  ExecutionContext::Get().SetNumThreads(hw);
  MaybeWriteReportFile();
  dbtune::obs::SetMetricsEnabled(metrics_were_enabled);
  std::printf("\n");
  return ok;
}

// When DBTUNE_FIG9_SESSION_LOG names a file, run one diagnostics-on
// SMAC session over the Figure-9 workload (JOB, top-20 knobs) and write
// its per-iteration JSONL there — CI feeds the file to dbtune_report
// and uploads the rendered markdown as an artifact.
void MaybeEmitDiagnosticsSessionLog() {
  const char* path = std::getenv("DBTUNE_FIG9_SESSION_LOG");
  if (path == nullptr || path[0] == '\0') return;
  const bool metrics_were_enabled = dbtune::obs::MetricsEnabled();
  dbtune::obs::SetMetricsEnabled(true);

  DbmsSimulator sim(WorkloadId::kJob, HardwareInstance::kB, 2);
  const std::vector<size_t> ranking = sim.surface().TunabilityRanking();
  const std::vector<size_t> top20(ranking.begin(), ranking.begin() + 20);
  TuningEnvironment env(&sim, top20);
  OptimizerOptions options;
  options.seed = 7;
  std::unique_ptr<Optimizer> optimizer =
      CreateOptimizer(OptimizerType::kSmac, env.space(), options);

  SessionControls controls;
  controls.session_log_path = path;
  controls.diagnostics = true;
  controls.session_label = "fig9";
  const SessionResult result =
      RunTuningSession(&env, optimizer.get(), /*iterations=*/40, controls);
  std::printf("diagnostics session log written to %s "
              "(best improvement %.2f%%)\n\n",
              path, result.final_improvement);
  dbtune::obs::SetMetricsEnabled(metrics_were_enabled);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Figure 9: algorithm overhead per suggestion ===\n");
  std::printf("paper shape: GP-based optimizers grow cubically with the\n"
              "number of observations (>10s after 200 iters on the paper's\n"
              "hardware); RF/TPE/GA/DDPG stay near-constant.\n\n");
  MaybeEmitDiagnosticsSessionLog();
  const bool ok = RunThreadScalingReport();
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return ok ? 0 : 1;
}
