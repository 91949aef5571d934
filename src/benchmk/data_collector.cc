#include "benchmk/data_collector.h"

#include "core/tuning_session.h"
#include "dbms/environment.h"
#include "optimizer/optimizer.h"
#include "sampling/latin_hypercube.h"
#include "util/logging.h"

namespace dbtune {

Result<TuningDataset> CollectDataset(DbmsSimulator* simulator,
                                     const std::vector<size_t>& knob_indices,
                                     const CollectionOptions& options) {
  DBTUNE_CHECK(simulator != nullptr);
  if (options.lhs_samples == 0) {
    return Status::InvalidArgument("lhs_samples must be positive");
  }

  TuningEnvironment env(simulator, knob_indices);
  const double sim_start = simulator->simulated_seconds();

  TuningDataset dataset;
  dataset.space = env.space();
  dataset.objective_kind = simulator->workload().objective;
  dataset.default_config = env.default_config();
  dataset.default_objective = env.default_objective();

  Rng rng(options.seed);
  const std::vector<Configuration> lhs =
      LatinHypercubeSample(dataset.space, options.lhs_samples, rng);
  for (const Configuration& config : lhs) {
    env.Evaluate(config);
  }

  if (options.optimizer_guided_samples > 0) {
    OptimizerOptions optimizer_options;
    optimizer_options.seed = options.seed ^ 0x60D;
    std::unique_ptr<Optimizer> smac =
        CreateOptimizer(OptimizerType::kSmac, dataset.space,
                        optimizer_options);
    // The dataset is the record. Bound to the store, the session would
    // share the default session id with every other unlabelled session.
    SessionControls controls;
    controls.store_path = "";
    RunTuningSession(&env, smac.get(), options.optimizer_guided_samples,
                     controls);
  }

  // Materialize: failed configurations take the worst successful
  // objective.
  const std::vector<Observation>& history = env.history();
  double worst_objective = dataset.default_objective;
  for (const Observation& obs : history) {
    if (!obs.failed &&
        DirectedScore(obs.objective, dataset.objective_kind) <
            DirectedScore(worst_objective, dataset.objective_kind)) {
      worst_objective = obs.objective;
    }
  }
  dataset.unit_x.reserve(history.size());
  dataset.objectives.reserve(history.size());
  for (const Observation& obs : history) {
    dataset.unit_x.push_back(dataset.space.ToUnit(obs.config));
    dataset.objectives.push_back(obs.failed ? worst_objective
                                            : obs.objective);
  }
  dataset.simulated_collection_seconds =
      simulator->simulated_seconds() - sim_start;
  return dataset;
}

}  // namespace dbtune
