#ifndef DBTUNE_OPTIMIZER_GENETIC_H_
#define DBTUNE_OPTIMIZER_GENETIC_H_

#include <vector>

#include "optimizer/optimizer.h"

namespace dbtune {

/// Genetic algorithm: tournament selection, uniform crossover, and
/// per-gene mutation over the unit encoding. Naturally supports
/// categorical knobs but is sample-hungry — the paper's meta-heuristic
/// baseline.
class GeneticOptimizer final : public Optimizer {
 public:
  GeneticOptimizer(const ConfigurationSpace& space, OptimizerOptions options);

  void ObserveWithMetrics(const Configuration& config, double score,
                          const std::vector<double>& metrics) override;
  std::string name() const override { return "GA"; }

 private:
  Configuration DoSuggest() override;

  struct Individual {
    std::vector<double> unit;
    double fitness = 0.0;
    bool evaluated = false;
  };

  void BreedNextGeneration();
  const Individual& Tournament(const std::vector<Individual>& pool);

  std::vector<Individual> population_;
  size_t cursor_ = 0;  // next individual to evaluate
  int pending_ = -1;   // individual awaiting its observation
};

}  // namespace dbtune

#endif  // DBTUNE_OPTIMIZER_GENETIC_H_
