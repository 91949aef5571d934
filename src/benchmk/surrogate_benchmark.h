#ifndef DBTUNE_BENCHMK_SURROGATE_BENCHMARK_H_
#define DBTUNE_BENCHMK_SURROGATE_BENCHMARK_H_

#include <memory>

#include "benchmk/data_collector.h"
#include "dbms/evaluator.h"
#include "surrogate/random_forest.h"

namespace dbtune {

/// The paper's §8 contribution: a cheap-to-evaluate stand-in for a real
/// tuning task. A random-forest surrogate trained on an offline dataset
/// answers configuration queries in microseconds instead of minutes,
/// preserving the response surface's shape so optimizers can be compared
/// at a tiny fraction of the cost. It is an `Evaluator`: a session over
/// `TuningEnvironment(benchmark)` follows the same protocol as one over
/// the simulator.
class SurrogateBenchmark final : public Evaluator {
 public:
  /// Trains the surrogate on `dataset` (which it copies the space and
  /// defaults from). Fails when the dataset is degenerate.
  [[nodiscard]] static Result<std::unique_ptr<SurrogateBenchmark>> Build(
      const TuningDataset& dataset);

  /// The benchmark's configuration space.
  const ConfigurationSpace& space() const override { return space_; }
  ObjectiveKind objective() const override { return objective_kind_; }

  /// The dataset's default configuration.
  Configuration EffectiveDefault() const override { return default_config_; }
  /// The default's objective (measured when the dataset carries it, else
  /// predicted at build time), without a query.
  EvaluationResult MeasureDefault() override;
  /// Predicted raw objective of a configuration (tps or seconds): one
  /// surrogate query, costed as one real evaluation.
  EvaluationResult Evaluate(const Configuration& config) override;
  /// Counts one evaluation without a query.
  void ReplaySkip(bool failed) override;
  /// Real-system seconds the evaluations so far stand in for (3-minute
  /// stress test + restart each), for the §8 speedup claim.
  double simulated_seconds() const override;

  /// Wall-clock seconds spent answering surrogate queries.
  double evaluation_seconds() const { return evaluation_seconds_; }

 private:
  SurrogateBenchmark() = default;

  ConfigurationSpace space_;
  ObjectiveKind objective_kind_ = ObjectiveKind::kThroughput;
  RandomForest forest_;
  Configuration default_config_;
  double default_objective_ = 0.0;
  size_t evaluations_ = 0;
  double evaluation_seconds_ = 0.0;
};

}  // namespace dbtune

#endif  // DBTUNE_BENCHMK_SURROGATE_BENCHMARK_H_
