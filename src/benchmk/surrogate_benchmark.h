#ifndef DBTUNE_BENCHMK_SURROGATE_BENCHMARK_H_
#define DBTUNE_BENCHMK_SURROGATE_BENCHMARK_H_

#include <memory>

#include "benchmk/data_collector.h"
#include "core/tuning_session.h"
#include "optimizer/optimizer.h"
#include "surrogate/random_forest.h"

namespace dbtune {

/// The paper's §8 contribution: a cheap-to-evaluate stand-in for a real
/// tuning task. A random-forest surrogate trained on an offline dataset
/// answers configuration queries in microseconds instead of minutes,
/// preserving the response surface's shape so optimizers can be compared
/// at a tiny fraction of the cost.
class SurrogateBenchmark {
 public:
  /// Trains the surrogate on `dataset` (which it copies the space and
  /// defaults from). Fails when the dataset is degenerate.
  [[nodiscard]] static Result<std::unique_ptr<SurrogateBenchmark>> Build(
      const TuningDataset& dataset);

  /// The benchmark's configuration space.
  const ConfigurationSpace& space() const { return space_; }
  ObjectiveKind objective_kind() const { return objective_kind_; }

  /// Predicted raw objective of a configuration (tps or seconds).
  double PredictObjective(const Configuration& config) const;

  /// Predicted objective of the default configuration.
  double default_objective() const { return default_objective_; }

  /// Maximize-direction score of a configuration.
  double Score(const Configuration& config) const;

  /// Improvement (%) of `objective` over the default, direction-aware.
  double ImprovementPercentOf(double objective) const;

  /// Number of surrogate evaluations served so far.
  size_t evaluation_count() const { return evaluations_; }
  /// Wall-clock seconds spent answering them.
  double evaluation_seconds() const { return evaluation_seconds_; }
  /// What the same evaluations would have cost on the real system
  /// (3-minute stress test + restart each), for the §8 speedup claim.
  double EquivalentRealSeconds() const;

 private:
  SurrogateBenchmark() = default;

  ConfigurationSpace space_;
  ObjectiveKind objective_kind_ = ObjectiveKind::kThroughput;
  RandomForest forest_;
  double default_objective_ = 0.0;
  mutable size_t evaluations_ = 0;
  mutable double evaluation_seconds_ = 0.0;
};

/// Runs a full tuning session of `optimizer_type` against the surrogate
/// benchmark: same protocol as `RunTuningSession` but with model
/// predictions instead of workload replay. Also fills in the overhead and
/// wall-clock accounting used by Figure 10's speedup report.
SessionResult RunSurrogateSession(SurrogateBenchmark* benchmark,
                                  OptimizerType optimizer_type,
                                  size_t iterations, uint64_t seed);

}  // namespace dbtune

#endif  // DBTUNE_BENCHMK_SURROGATE_BENCHMARK_H_
