#include "optimizer/genetic.h"

#include <algorithm>
#include <cmath>

#include "sampling/latin_hypercube.h"
#include "util/logging.h"

namespace dbtune {

namespace {
constexpr size_t kPopulationSize = 30;
constexpr size_t kTournamentSize = 3;
constexpr size_t kElites = 1;
/// Standard deviation of a numeric gene's Gaussian mutation.
constexpr double kMutationSigma = 0.20;
constexpr double kCrossoverRate = 0.9;
}  // namespace

GeneticOptimizer::GeneticOptimizer(const ConfigurationSpace& space,
                                   OptimizerOptions options)
    : Optimizer(space, options, "genetic") {
  // Initial population: a space-filling LHS design.
  const auto units =
      LatinHypercubeUnit(kPopulationSize, space_.dimension(), rng_);
  population_.resize(kPopulationSize);
  for (size_t i = 0; i < units.size(); ++i) population_[i].unit = units[i];
}

const GeneticOptimizer::Individual& GeneticOptimizer::Tournament(
    const std::vector<Individual>& pool) {
  size_t best = rng_.Index(pool.size());
  for (size_t t = 1; t < kTournamentSize; ++t) {
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
  for (size_t e = 0; e < kElites && e < parents.size(); ++e) {
    Individual elite;
    elite.unit = parents[e].unit;
    next.push_back(std::move(elite));
  }

  // Per-gene mutation probability, scaled by 1/d: two genes per child on
  // average, at most half of them.
  const double mutation_rate = std::min(0.5, 2.0 / static_cast<double>(d));
  while (next.size() < population_.size()) {
    const Individual& a = Tournament(parents);
    const Individual& b = Tournament(parents);
    Individual child;
    child.unit.resize(d);
    const bool crossover = rng_.Bernoulli(kCrossoverRate);
    for (size_t j = 0; j < d; ++j) {
      child.unit[j] = (crossover && rng_.Bernoulli(0.5)) ? b.unit[j]
                                                         : a.unit[j];
      if (rng_.Bernoulli(mutation_rate)) {
        if (space_.knob(j).is_categorical()) {
          child.unit[j] = rng_.Uniform();
        } else {
          child.unit[j] = std::clamp(
              child.unit[j] + rng_.Gaussian(0.0, kMutationSigma),
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

void GeneticOptimizer::ObserveWithMetrics(
    const Configuration& config, double score,
    const std::vector<double>& metrics) {
  Optimizer::ObserveWithMetrics(config, score, metrics);
  if (pending_ >= 0 &&
      pending_ < static_cast<int>(population_.size())) {
    Individual& individual = population_[static_cast<size_t>(pending_)];
    individual.fitness = score;
    individual.evaluated = true;
  }
  pending_ = -1;
}

}  // namespace dbtune
