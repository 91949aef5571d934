// Surrogate scaling micro-bench for the GP incremental-fit and batched-
// predict paths (PERF acceptance: >= 5x on non-hyperopt sequential fits
// at n = 500, >= 2x on batched acquisition scoring), plus SMAC's
// random-forest fit (`forest_fit`: d = 20 and d = 197 over snapped MySQL
// configurations).
// Emits JSON lines to stdout and writes them to DBTUNE_BENCH_GP_REPORT
// (default BENCH_GP.json in the working directory) for CI artifacts; exits
// non-zero when a row says identical:false or the report cannot be
// written. Every row records the effective thread-pool size (`threads`),
// which honours DBTUNE_NUM_THREADS. Quick mode: DBTUNE_BENCH_SCALE below
// 0.3 shrinks sizes proportionally.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "knobs/catalog.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "surrogate/gaussian_process.h"
#include "surrogate/random_forest.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace dbtune {
namespace {

using bench::Effective;
using bench::RandomInputs;

std::vector<double> SyntheticTargets(const FeatureMatrix& x) {
  std::vector<double> y;
  y.reserve(x.size());
  for (const auto& row : x) {
    double s = 0.0;
    for (size_t j = 0; j < row.size(); ++j) {
      s += std::sin(3.0 * row[j]) * static_cast<double>(j + 1);
    }
    y.push_back(s);
  }
  return y;
}

bench::JsonReport g_report;

uint64_t IncrementalFitCount() {
  const obs::Histogram* hist =
      obs::MetricsRegistry::Get().FindHistogram("gp.fit.incremental");
  return hist == nullptr ? 0 : hist->count();
}

// Times `appends` one-row sequential fits (grid search paid once on the
// warm-up fit, outside the timed region) with the given incremental
// setting; returns seconds and the final LML for the identity check.
struct FitRun {
  double seconds = 0.0;
  double final_lml = 0.0;
};

FitRun TimeSequentialFits(const FeatureMatrix& x, const std::vector<double>& y,
                          size_t appends, bool incremental) {
  GaussianProcessOptions options;
  options.hyperopt_every = 1u << 20;  // grid search on the warm-up fit only
  options.enable_incremental = incremental;
  GaussianProcess gp(std::make_unique<Matern52Kernel>(), options);
  const size_t n0 = x.size() - appends;
  FeatureMatrix head_x(x.begin(), x.begin() + n0);
  std::vector<double> head_y(y.begin(), y.begin() + n0);
  if (!gp.Fit(head_x, head_y).ok()) {
    std::fprintf(stderr, "warm-up fit failed\n");
    std::exit(1);
  }
  FitRun run;
  for (size_t i = 0; i < appends; ++i) {
    head_x.push_back(x[n0 + i]);
    head_y.push_back(y[n0 + i]);
    const double start = obs::MonotonicSeconds();
    if (!gp.Fit(head_x, head_y).ok()) {
      std::fprintf(stderr, "append fit failed\n");
      std::exit(1);
    }
    run.seconds += obs::MonotonicSeconds() - start;
  }
  run.final_lml = gp.log_marginal_likelihood();
  return run;
}

void BenchSequentialFits() {
  const size_t appends = Effective(20, 4);
  for (size_t full_n : {100u, 250u, 500u}) {
    const size_t n = Effective(full_n, 40);
    const FeatureMatrix x = RandomInputs(n, 20, 101 + full_n);
    const std::vector<double> y = SyntheticTargets(x);
    const uint64_t inc_before = IncrementalFitCount();
    const FitRun incremental = TimeSequentialFits(x, y, appends, true);
    const uint64_t inc_fits = IncrementalFitCount() - inc_before;
    const FitRun full = TimeSequentialFits(x, y, appends, false);
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "{\"bench\":\"gp_scaling\",\"task\":\"sequential_fit\",\"n\":%zu,"
        "\"appends\":%zu,\"threads\":%zu,\"incremental_fits\":%llu,"
        "\"full_s\":%.6f,\"incremental_s\":%.6f,\"speedup\":%.2f,"
        "\"identical\":%s}\n",
        n, appends, ExecutionContext::Get().num_threads(),
        static_cast<unsigned long long>(inc_fits), full.seconds,
        incremental.seconds,
        incremental.seconds > 0.0 ? full.seconds / incremental.seconds : 0.0,
        incremental.final_lml == full.final_lml ? "true" : "false");
    g_report.Emit(line);
  }
}

void BenchBatchedPredict() {
  const size_t n = Effective(500, 40);
  const size_t num_queries = Effective(2000, 200);
  const FeatureMatrix x = RandomInputs(n, 20, 211);
  const std::vector<double> y = SyntheticTargets(x);
  const FeatureMatrix queries = RandomInputs(num_queries, 20, 223);
  GaussianProcess gp(std::make_unique<Matern52Kernel>());
  if (!gp.Fit(x, y).ok()) {
    std::fprintf(stderr, "fit failed\n");
    std::exit(1);
  }

  // Scalar baseline: the per-candidate loop the optimizers used to run.
  std::vector<double> scalar_means(num_queries), scalar_vars(num_queries);
  const double scalar_start = obs::MonotonicSeconds();
  for (size_t q = 0; q < num_queries; ++q) {
    gp.PredictMeanVar(queries[q], &scalar_means[q], &scalar_vars[q]);
  }
  const double scalar_s = obs::MonotonicSeconds() - scalar_start;

  std::vector<double> batch_means, batch_vars;
  const double batch_start = obs::MonotonicSeconds();
  gp.PredictMeanVarBatch(queries, &batch_means, &batch_vars);
  const double batch_s = obs::MonotonicSeconds() - batch_start;

  const bool identical =
      batch_means == scalar_means && batch_vars == scalar_vars;
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"gp_scaling\",\"task\":\"batched_predict\",\"n\":%zu,"
      "\"queries\":%zu,\"threads\":%zu,\"scalar_s\":%.6f,\"batch_s\":%.6f,"
      "\"speedup\":%.2f,\"identical\":%s}\n",
      n, num_queries, ExecutionContext::Get().num_threads(), scalar_s,
      batch_s, batch_s > 0.0 ? scalar_s / batch_s : 0.0,
      identical ? "true" : "false");
  g_report.Emit(line);
}

// SMAC's forest (src/optimizer/smac.cc): 30 trees, 2*round(sqrt(d))
// features per split.
RandomForestOptions SmacForestOptions() {
  RandomForestOptions options;
  options.num_trees = 30;
  options.min_samples_leaf = 2;
  options.min_samples_split = 4;
  options.max_depth = 20;
  options.seed = 0x5AC;
  return options;
}

// Snapped configurations of the first `d` MySQL knobs: the inputs SMAC
// fits on (categorical and integer knobs repeat values).
FeatureMatrix SnappedInputs(size_t n, size_t d, uint64_t seed) {
  std::vector<size_t> first(d);
  for (size_t i = 0; i < d; ++i) first[i] = i;
  const ConfigurationSpace space = MySqlKnobCatalog().Project(first);
  Rng rng(seed);
  FeatureMatrix x;
  x.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> unit(d);
    for (double& v : unit) v = rng.Uniform();
    x.push_back(space.SnapUnit(unit));
  }
  return x;
}

// Every tree's nodes and the posterior on `queries`, fitted at the given
// pool size: the cross-pool bitwise identity fingerprint.
std::vector<double> ForestFingerprint(const FeatureMatrix& x,
                                      const std::vector<double>& y,
                                      const FeatureMatrix& queries,
                                      size_t pool_size) {
  const size_t original = ExecutionContext::Get().num_threads();
  ExecutionContext::Get().SetNumThreads(pool_size);
  RandomForest forest(SmacForestOptions());
  if (!forest.Fit(x, y).ok()) {
    std::fprintf(stderr, "forest fit failed\n");
    std::exit(1);
  }
  std::vector<double> out;
  for (const RegressionTree& tree : forest.trees()) {
    for (const RegressionTree::Node& node : tree.nodes()) {
      out.push_back(static_cast<double>(node.feature));
      out.push_back(node.threshold);
      out.push_back(node.value);
      out.push_back(static_cast<double>(node.left));
      out.push_back(static_cast<double>(node.right));
    }
  }
  std::vector<double> means, vars;
  forest.PredictMeanVarBatch(queries, &means, &vars);
  out.insert(out.end(), means.begin(), means.end());
  out.insert(out.end(), vars.begin(), vars.end());
  ExecutionContext::Get().SetNumThreads(original);
  return out;
}

// SMAC's surrogate refit: median seconds of one forest fit over repeated
// fits, at d = 20 (the paper's medium space) and d = 197 (the full MySQL
// catalog), with the pools-1/2/8 identity check per row.
void BenchForestFit() {
  const size_t repeats = Effective(30, 3);
  const struct {
    size_t d;
    size_t n;
  } rows[] = {{20, 25},  {20, 50},   {20, 100}, {20, 200},
              {197, 10}, {197, 100}, {197, 400}};
  for (const auto& row : rows) {
    const FeatureMatrix x = SnappedInputs(row.n, row.d, 401 + row.n + row.d);
    const std::vector<double> y = SyntheticTargets(x);
    const FeatureMatrix queries = SnappedInputs(64, row.d, 409);

    std::vector<double> seconds;
    for (size_t r = 0; r < repeats; ++r) {
      RandomForest forest(SmacForestOptions());
      const double start = obs::MonotonicSeconds();
      if (!forest.Fit(x, y).ok()) {
        std::fprintf(stderr, "forest fit failed\n");
        std::exit(1);
      }
      seconds.push_back(obs::MonotonicSeconds() - start);
    }

    const std::vector<double> pool1 = ForestFingerprint(x, y, queries, 1);
    const bool identical = pool1 == ForestFingerprint(x, y, queries, 2) &&
                           pool1 == ForestFingerprint(x, y, queries, 8);
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "{\"bench\":\"gp_scaling\",\"task\":\"forest_fit\",\"d\":%zu,"
        "\"n\":%zu,\"trees\":%zu,\"repeats\":%zu,\"host_cpus\":%zu,"
        "\"threads\":%zu,\"fit_s\":%.6f,\"identical\":%s}\n",
        row.d, row.n, SmacForestOptions().num_trees, repeats,
        bench::HostCpus(), ExecutionContext::Get().num_threads(),
        Median(seconds), identical ? "true" : "false");
    g_report.Emit(line);
  }
}

}  // namespace
}  // namespace dbtune

int main() {
  dbtune::bench::Banner("GP incremental-fit, batched-predict and forest-fit "
                        "scaling",
                        "sequential BO fits at n in {100,250,500}, d=20; "
                        "acquisition scoring of 2000 candidates at n=500; "
                        "SMAC forest fits at d=20 and d=197");
  // The incremental-fit counter proves the bordered-append path actually
  // ran (the identity check alone would also pass on silent fallback).
  dbtune::obs::SetMetricsEnabled(true);
  dbtune::BenchSequentialFits();
  dbtune::BenchBatchedPredict();
  dbtune::BenchForestFit();
  return dbtune::g_report.Finish("DBTUNE_BENCH_GP_REPORT", "BENCH_GP.json");
}
