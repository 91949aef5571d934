#include "benchmk/surrogate_benchmark.h"

#include <algorithm>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace dbtune {

namespace {
// Per-evaluation cost on the real system (restart + 3-minute stress test).
constexpr double kRealEvaluationSeconds = 210.0;
}  // namespace

Result<std::unique_ptr<SurrogateBenchmark>> SurrogateBenchmark::Build(
    const TuningDataset& dataset) {
  if (dataset.unit_x.empty()) {
    return Status::InvalidArgument("empty dataset");
  }
  // Private constructor keeps Build() the only entry point, so
  // make_unique cannot reach it — the raw new is wrapped immediately.
  auto benchmark = std::unique_ptr<SurrogateBenchmark>(
      new SurrogateBenchmark());  // dbtune-lint: allow(naked-new)
  benchmark->space_ = dataset.space;
  benchmark->objective_kind_ = dataset.objective_kind;
  DBTUNE_RETURN_IF_ERROR(
      benchmark->forest_.Fit(dataset.unit_x, dataset.objectives));
  // Baseline for improvement reporting: the *measured* default objective
  // when the dataset carries one (the paper reports gains over the real
  // default), falling back to the model's prediction at the default.
  benchmark->default_objective_ =
      dataset.default_objective > 0.0
          ? dataset.default_objective
          : benchmark->forest_.Predict(
                dataset.space.ToUnit(dataset.default_config));
  return benchmark;
}

double SurrogateBenchmark::PredictObjective(const Configuration& config) const {
  if (obs::MetricsEnabled()) {
    static obs::Counter& evaluations =
        obs::MetricsRegistry::Get().counter("surrogate.evaluations");
    evaluations.Increment();
  }
  const double t0 = obs::MonotonicSeconds();
  const double objective =
      forest_.Predict(space_.ToUnit(space_.Clip(config)));
  evaluation_seconds_ += obs::MonotonicSeconds() - t0;
  ++evaluations_;
  return objective;
}

double SurrogateBenchmark::Score(const Configuration& config) const {
  const double objective = PredictObjective(config);
  return objective_kind_ == ObjectiveKind::kThroughput ? objective
                                                       : -objective;
}

double SurrogateBenchmark::ImprovementPercentOf(double objective) const {
  DBTUNE_CHECK(default_objective_ > 0.0);
  if (objective_kind_ == ObjectiveKind::kThroughput) {
    return (objective - default_objective_) / default_objective_ * 100.0;
  }
  return (default_objective_ - objective) / default_objective_ * 100.0;
}

double SurrogateBenchmark::EquivalentRealSeconds() const {
  return static_cast<double>(evaluations_) * kRealEvaluationSeconds;
}

SessionResult RunSurrogateSession(SurrogateBenchmark* benchmark,
                                  OptimizerType optimizer_type,
                                  size_t iterations, uint64_t seed) {
  DBTUNE_CHECK(benchmark != nullptr);
  OptimizerOptions options;
  options.seed = seed;
  std::unique_ptr<Optimizer> optimizer =
      CreateOptimizer(optimizer_type, benchmark->space(), options);
  optimizer->SetReferenceScore(
      benchmark->objective_kind() == ObjectiveKind::kThroughput
          ? benchmark->default_objective()
          : -benchmark->default_objective());

  SessionResult result;
  double best_score = -1e300;
  double best_objective = benchmark->default_objective();
  for (size_t iter = 0; iter < iterations; ++iter) {
    DBTUNE_TRACE_SPAN("surrogate.iteration");
    const double t0 = obs::MonotonicSeconds();
    const Configuration config = optimizer->Suggest();
    const double objective = benchmark->PredictObjective(config);
    const double score =
        benchmark->objective_kind() == ObjectiveKind::kThroughput
            ? objective
            : -objective;
    optimizer->Observe(benchmark->space().Clip(config), score);
    const double t1 = obs::MonotonicSeconds();
    result.algorithm_overhead_seconds += t1 - t0;
    if (score > best_score) {
      best_score = score;
      best_objective = objective;
      result.best_iteration = iter + 1;
    }
    result.objective_trace.push_back(best_objective);
    result.improvement_trace.push_back(
        benchmark->ImprovementPercentOf(best_objective));
  }
  result.final_objective = best_objective;
  result.final_improvement = benchmark->ImprovementPercentOf(best_objective);
  result.simulated_evaluation_seconds = 0.0;
  return result;
}

}  // namespace dbtune
