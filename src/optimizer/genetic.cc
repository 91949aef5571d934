#include "optimizer/genetic.h"

#include <algorithm>
#include <cmath>

#include "sampling/latin_hypercube.h"
#include "util/logging.h"

namespace dbtune {

GeneticOptimizer::GeneticOptimizer(const ConfigurationSpace& space,
                                   OptimizerOptions options,
                                   GeneticOptions ga_options)
    : Optimizer(space, options, "genetic"), ga_options_(ga_options) {
  // Initial population: a space-filling LHS design.
  const auto units = LatinHypercubeUnit(ga_options_.population_size,
                                        space_.dimension(), rng_);
  population_.resize(ga_options_.population_size);
  for (size_t i = 0; i < units.size(); ++i) population_[i].unit = units[i];
}

const GeneticOptimizer::Individual& GeneticOptimizer::Tournament(
    const std::vector<Individual>& pool) {
  size_t best = rng_.Index(pool.size());
  for (size_t t = 1; t < ga_options_.tournament_size; ++t) {
    const size_t challenger = rng_.Index(pool.size());
    if (pool[challenger].fitness > pool[best].fitness) best = challenger;
  }
  return pool[best];
}

void GeneticOptimizer::BreedNextGeneration() {
  const size_t d = space_.dimension();
  std::vector<Individual> parents = population_;
  std::sort(parents.begin(), parents.end(),
            [](const Individual& a, const Individual& b) {
              return a.fitness > b.fitness;
            });

  std::vector<Individual> next;
  next.reserve(population_.size());
  // Elitism: re-evaluate the top individuals' genomes in the new
  // generation (their slots carry over unchanged).
  for (size_t e = 0; e < ga_options_.elites && e < parents.size(); ++e) {
    Individual elite;
    elite.unit = parents[e].unit;
    next.push_back(std::move(elite));
  }

  const double mutation_rate =
      ga_options_.mutation_rate > 0.0
          ? ga_options_.mutation_rate
          : std::min(0.5, 2.0 / static_cast<double>(d));
  while (next.size() < population_.size()) {
    const Individual& a = Tournament(parents);
    const Individual& b = Tournament(parents);
    Individual child;
    child.unit.resize(d);
    const bool crossover = rng_.Bernoulli(ga_options_.crossover_rate);
    for (size_t j = 0; j < d; ++j) {
      child.unit[j] = (crossover && rng_.Bernoulli(0.5)) ? b.unit[j]
                                                         : a.unit[j];
      if (rng_.Bernoulli(mutation_rate)) {
        if (space_.knob(j).is_categorical()) {
          child.unit[j] = rng_.Uniform();
        } else {
          child.unit[j] = std::clamp(
              child.unit[j] + rng_.Gaussian(0.0, ga_options_.mutation_sigma),
              0.0, 1.0);
        }
      }
    }
    next.push_back(std::move(child));
  }
  population_ = std::move(next);
  cursor_ = 0;
}

Configuration GeneticOptimizer::DoSuggest() {
  if (cursor_ >= population_.size()) BreedNextGeneration();
  pending_ = static_cast<int>(cursor_);
  ++cursor_;
  return space_.FromUnit(population_[static_cast<size_t>(pending_)].unit);
}

void GeneticOptimizer::Observe(const Configuration& config, double score) {
  Optimizer::Observe(config, score);
  if (pending_ >= 0 &&
      pending_ < static_cast<int>(population_.size())) {
    Individual& individual = population_[static_cast<size_t>(pending_)];
    individual.fitness = score;
    individual.evaluated = true;
  }
  pending_ = -1;
}

}  // namespace dbtune
