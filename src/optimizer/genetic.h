#ifndef DBTUNE_OPTIMIZER_GENETIC_H_
#define DBTUNE_OPTIMIZER_GENETIC_H_

#include <vector>

#include "optimizer/optimizer.h"

namespace dbtune {

/// GA-specific options.
struct GeneticOptions {
  size_t population_size = 30;
  size_t tournament_size = 3;
  size_t elites = 1;
  /// Per-gene mutation probability (scaled by 1/d when 0).
  double mutation_rate = 0.0;
  double mutation_sigma = 0.20;
  double crossover_rate = 0.9;
};

/// Genetic algorithm: tournament selection, uniform crossover, and
/// per-gene mutation over the unit encoding. Naturally supports
/// categorical knobs but is sample-hungry — the paper's meta-heuristic
/// baseline.
class GeneticOptimizer final : public Optimizer {
 public:
  GeneticOptimizer(const ConfigurationSpace& space, OptimizerOptions options,
                   GeneticOptions ga_options = {});

  void Observe(const Configuration& config, double score) override;
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

  GeneticOptions ga_options_;
  std::vector<Individual> population_;
  size_t cursor_ = 0;  // next individual to evaluate
  int pending_ = -1;   // individual awaiting its observation
};

}  // namespace dbtune

#endif  // DBTUNE_OPTIMIZER_GENETIC_H_
