#ifndef DBTUNE_OPTIMIZER_RANDOM_SEARCH_H_
#define DBTUNE_OPTIMIZER_RANDOM_SEARCH_H_

#include "optimizer/optimizer.h"

namespace dbtune {

/// Uniform random search — the sanity baseline every model-based
/// optimizer must beat.
class RandomSearchOptimizer final : public Optimizer {
 public:
  RandomSearchOptimizer(const ConfigurationSpace& space,
                        OptimizerOptions options);

  std::string name() const override { return "Random"; }

 private:
  Configuration DoSuggest() override;
};

}  // namespace dbtune

#endif  // DBTUNE_OPTIMIZER_RANDOM_SEARCH_H_
