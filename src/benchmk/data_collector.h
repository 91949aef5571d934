#ifndef DBTUNE_BENCHMK_DATA_COLLECTOR_H_
#define DBTUNE_BENCHMK_DATA_COLLECTOR_H_

#include <vector>

#include "dbms/simulator.h"
#include "knobs/configuration_space.h"
#include "surrogate/regressor.h"

namespace dbtune {

/// A (configuration, performance) dataset collected from a tuning task —
/// the raw material of the §8 surrogate benchmark and of knob selection.
struct TuningDataset {
  /// The tuned subspace the samples live in.
  ConfigurationSpace space;
  /// Unit-encoded configurations.
  FeatureMatrix unit_x;
  /// Raw objective values (tps or seconds). Failed configurations carry
  /// the worst successful objective (the paper's substitution rule).
  std::vector<double> objectives;
  ObjectiveKind objective_kind = ObjectiveKind::kThroughput;
  /// The deployment default as measured (the environment's effective
  /// default, `TuningEnvironment::default_config()`) and its objective.
  Configuration default_config;
  double default_objective = 0.0;
  /// Simulated wall-clock seconds the collection would have cost on the
  /// real system (the paper reports ~13 days per 6250-sample space).
  double simulated_collection_seconds = 0.0;
};

/// Collection options.
struct CollectionOptions {
  size_t lhs_samples = 6250;
  /// Additional samples around high-performing regions, gathered by
  /// running a SMAC session and keeping its evaluations ("run existing
  /// database optimizers to densely sample high-performance regions").
  size_t optimizer_guided_samples = 0;
  uint64_t seed = 3;
};

/// Collects a dataset over the `knob_indices` subspace of `simulator`'s
/// catalog (unselected knobs pinned at the effective default).
[[nodiscard]] Result<TuningDataset> CollectDataset(DbmsSimulator* simulator,
                                     const std::vector<size_t>& knob_indices,
                                     const CollectionOptions& options);

}  // namespace dbtune

#endif  // DBTUNE_BENCHMK_DATA_COLLECTOR_H_
