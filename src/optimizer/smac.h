#ifndef DBTUNE_OPTIMIZER_SMAC_H_
#define DBTUNE_OPTIMIZER_SMAC_H_

#include "optimizer/optimizer.h"
#include "surrogate/random_forest.h"

namespace dbtune {

/// SMAC (Hutter et al. 2011): Bayesian optimization with a random-forest
/// surrogate (mean/variance across trees as the Gaussian model) and EI
/// maximized by combined random + local search. Handles high-dimensional
/// and categorical inputs natively — the paper's overall winner.
class SmacOptimizer final : public Optimizer {
 public:
  SmacOptimizer(const ConfigurationSpace& space, OptimizerOptions options);

  std::string name() const override { return "SMAC"; }

 private:
  Configuration DoSuggest() override;

  /// Mutates 1-3 dimensions of `unit`, chosen proportionally to the
  /// forest's split counts (the model tells the local search which knobs
  /// matter — the mechanism behind SMAC's robustness in high dimensions).
  std::vector<double> MutateNeighbor(const std::vector<double>& unit,
                                     const std::vector<double>& dim_weights);

  RandomForest forest_;
};

}  // namespace dbtune

#endif  // DBTUNE_OPTIMIZER_SMAC_H_
