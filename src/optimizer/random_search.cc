#include "optimizer/random_search.h"

namespace dbtune {

RandomSearchOptimizer::RandomSearchOptimizer(const ConfigurationSpace& space,
                                             OptimizerOptions options)
    : Optimizer(space, options, "random_search") {}

Configuration RandomSearchOptimizer::DoSuggest() {
  return space_.SampleUniform(rng_);
}

}  // namespace dbtune
