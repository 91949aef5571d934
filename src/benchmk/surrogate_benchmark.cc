#include "benchmk/surrogate_benchmark.h"

#include "obs/clock.h"
#include "obs/metrics.h"
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
  benchmark->default_config_ = dataset.default_config;
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

EvaluationResult SurrogateBenchmark::MeasureDefault() {
  EvaluationResult result;
  result.objective = default_objective_;
  return result;
}

EvaluationResult SurrogateBenchmark::Evaluate(const Configuration& config) {
  if (obs::MetricsEnabled()) {
    static obs::Counter& evaluations =
        obs::MetricsRegistry::Get().counter("surrogate.evaluations");
    evaluations.Increment();
  }
  EvaluationResult result;
  const double t0 = obs::MonotonicSeconds();
  result.objective = forest_.Predict(space_.ToUnit(space_.Clip(config)));
  evaluation_seconds_ += obs::MonotonicSeconds() - t0;
  ++evaluations_;
  result.evaluation_seconds = kRealEvaluationSeconds;
  return result;
}

void SurrogateBenchmark::ReplaySkip(bool failed) {
  (void)failed;  // the surrogate never fails
  ++evaluations_;
}

double SurrogateBenchmark::simulated_seconds() const {
  return static_cast<double>(evaluations_) * kRealEvaluationSeconds;
}

}  // namespace dbtune
