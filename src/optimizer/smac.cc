#include "optimizer/smac.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/stats.h"

namespace dbtune {

namespace {
/// Probability of interleaving a pure random configuration (SMAC's
/// exploration guarantee).
constexpr double kRandomInterleave = 0.10;
/// Local-search neighbours generated around each of the top incumbents.
constexpr size_t kLocalNeighbors = 50;
constexpr size_t kNumIncumbents = 3;
/// Random candidates added to the acquisition pool.
constexpr size_t kRandomCandidates = 300;

RandomForestOptions SmacForestOptions(uint64_t seed) {
  RandomForestOptions options;
  options.num_trees = 30;
  options.min_samples_leaf = 2;
  options.min_samples_split = 4;
  options.max_depth = 20;
  options.seed = seed;
  return options;
}
}  // namespace

SmacOptimizer::SmacOptimizer(const ConfigurationSpace& space,
                             OptimizerOptions options)
    : Optimizer(space, options, "smac"),
      forest_(SmacForestOptions(options.seed ^ 0x5AC)) {}

std::vector<double> SmacOptimizer::MutateNeighbor(
    const std::vector<double>& unit, const std::vector<double>& dim_weights) {
  std::vector<double> u = unit;
  // Change a small number of knobs, one to three, like SMAC's
  // one-exchange neighbourhood, biased toward dimensions the surrogate
  // considers informative.
  const size_t changes = 1 + rng_.Index(3);
  for (size_t c = 0; c < changes; ++c) {
    const size_t j = rng_.WeightedIndex(dim_weights);
    if (space_.knob(j).is_categorical()) {
      u[j] = rng_.Uniform();  // decodes to a uniform random category
    } else {
      u[j] = std::clamp(u[j] + rng_.Gaussian(0.0, 0.1), 0.0, 1.0);
    }
  }
  return u;
}

Configuration SmacOptimizer::DoSuggest() {
  if (InitPending()) return NextInit();
  DBTUNE_CHECK(!scores_.empty());
  if (rng_.Bernoulli(kRandomInterleave)) {
    return space_.SampleUniform(rng_);
  }

  const std::vector<double> z = StandardizeScores(scores_);
  Status fit = forest_.Fit(unit_history_, z);
  if (!fit.ok()) return space_.SampleUniform(rng_);
  const double best = *std::max_element(z.begin(), z.end());

  // Dimension weights from the forest's split counts (smoothed so every
  // dimension keeps some probability mass).
  std::vector<double> dim_weights = forest_.SplitCountImportance();
  for (double& w : dim_weights) w += 1.0;

  // Incumbents: top-k observed configurations.
  std::vector<size_t> order = ArgSortDescending(z);
  const size_t incumbents = std::min(kNumIncumbents, order.size());

  std::vector<std::vector<double>> candidates;
  candidates.reserve(kRandomCandidates + incumbents * kLocalNeighbors);
  for (size_t i = 0; i < incumbents; ++i) {
    const std::vector<double>& center = unit_history_[order[i]];
    for (size_t c = 0; c < kLocalNeighbors; ++c) {
      candidates.push_back(MutateNeighbor(center, dim_weights));
    }
  }
  const size_t d = space_.dimension();
  for (size_t c = 0; c < kRandomCandidates; ++c) {
    std::vector<double> u(d);
    for (double& v : u) v = rng_.Uniform();
    candidates.push_back(std::move(u));
  }

  auto ei_of = [&](const std::vector<double>& unit) {
    double mean = 0.0, var = 0.0;
    forest_.PredictMeanVar(space_.SnapUnit(unit), &mean, &var);
    return ExpectedImprovement(mean, var, best);
  };

  // The candidate pool is scored through the batched predict path
  // (parallel, independent forest queries); the hill climb below stays
  // sequential because each probe depends on the previous accept/reject
  // decision and the shared RNG.
  std::vector<double> means, variances;
  forest_.PredictMeanVarBatch(SnapCandidates(candidates), &means, &variances);
  std::vector<double> ei(candidates.size());
  AcquisitionSweep sweep(-1.0);
  for (size_t c = 0; c < candidates.size(); ++c) {
    ei[c] = ExpectedImprovement(means[c], variances[c], best);
    sweep.Add(ei[c]);
  }

  // Hill-climb from the most promising candidates (SMAC's local search):
  // fine-grained neighbours around the top EI points.
  std::vector<size_t> ei_order = ArgSortDescending(ei);
  double best_ei = ei[ei_order.front()];
  std::vector<double> best_unit = candidates[ei_order.front()];
  const size_t starts = std::min<size_t>(5, ei_order.size());
  for (size_t s = 0; s < starts; ++s) {
    std::vector<double> current = candidates[ei_order[s]];
    double current_ei = ei[ei_order[s]];
    // Scale the search length with dimensionality (SMAC's one-exchange
    // neighbourhood sweeps every parameter).
    const int steps = static_cast<int>(std::max<size_t>(24, 2 * d));
    for (int step = 0; step < steps; ++step) {
      std::vector<double> probe = current;
      const size_t j = rng_.WeightedIndex(dim_weights);
      if (space_.knob(j).is_categorical()) {
        probe[j] = rng_.Uniform();
      } else {
        probe[j] = std::clamp(probe[j] + rng_.Gaussian(0.0, 0.05), 0.0, 1.0);
      }
      const double probe_ei = ei_of(probe);
      if (probe_ei > current_ei) {
        current = std::move(probe);
        current_ei = probe_ei;
      }
    }
    if (current_ei > best_ei) {
      best_ei = current_ei;
      best_unit = current;
    }
  }

  // One deterministic posterior query at the winner (it may have moved
  // during the hill climb); the spread is the pool's, before the climb.
  double win_mean = 0.0;
  double win_var = 0.0;
  forest_.PredictMeanVar(space_.SnapUnit(best_unit), &win_mean, &win_var);
  RecordPrediction(win_mean, win_var);
  RecordAcquisition(best_ei, sweep);
  return space_.FromUnit(best_unit);
}

}  // namespace dbtune
