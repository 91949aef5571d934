#include "importance/fanova.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "surrogate/random_forest.h"
#include "util/stats.h"

namespace dbtune {

namespace {
constexpr size_t kNumTrees = 16;
constexpr size_t kMinSamplesLeaf = 3;
constexpr size_t kMaxDepth = 14;
}  // namespace

FanovaImportance::FanovaImportance(uint64_t seed) : seed_(seed) {}

Result<std::vector<double>> FanovaImportance::Rank(
    const ImportanceInput& input) {
  RandomForestOptions forest_options;
  forest_options.num_trees = kNumTrees;
  forest_options.min_samples_leaf = kMinSamplesLeaf;
  forest_options.max_depth = kMaxDepth;
  forest_options.seed = seed_;
  RandomForest forest(forest_options);
  DBTUNE_RETURN_IF_ERROR(forest.Fit(input.unit_x, input.scores));

  last_r_squared_ = HoldoutRSquared(
      input,
      [&] { return std::make_unique<RandomForest>(forest_options); },
      seed_);

  const size_t d = input.unit_x.front().size();
  std::vector<double> importance(d, 0.0);
  size_t contributing_trees = 0;

  for (const RegressionTree& tree : forest.trees()) {
    const std::vector<RegressionTree::LeafBox> boxes = tree.LeafBoxes();

    // Total mean/variance of the tree function over the uniform unit cube.
    double mean = 0.0;
    for (const auto& box : boxes) mean += box.value * box.volume;
    double total_var = 0.0;
    for (const auto& box : boxes) {
      total_var += box.value * box.value * box.volume;
    }
    total_var -= mean * mean;
    if (total_var <= 1e-12) continue;
    ++contributing_trees;

    // Unary marginal variance per dimension via a sweep over leaf bounds.
    for (size_t j = 0; j < d; ++j) {
      // Event map: at a bound, the marginal gains/loses value * vol_{-j}.
      std::map<double, double> events;
      bool varies = false;
      for (const auto& box : boxes) {
        const double span = box.upper[j] - box.lower[j];
        if (span <= 0.0) continue;
        const double weight = box.value * box.volume / span;
        events[box.lower[j]] += weight;
        events[box.upper[j]] -= weight;
        if (span < 1.0 - 1e-12) varies = true;
      }
      if (!varies) continue;  // no split on j: zero marginal variance

      double marginal_var = 0.0;
      double level = 0.0;
      double prev = 0.0;
      for (const auto& [position, delta] : events) {
        if (position > prev) {
          const double centered = level - mean;
          marginal_var += centered * centered * (position - prev);
        }
        level += delta;
        prev = position;
      }
      if (prev < 1.0) {
        const double centered = level - mean;
        marginal_var += centered * centered * (1.0 - prev);
      }
      importance[j] += marginal_var / total_var;
    }
  }

  if (contributing_trees > 0) {
    for (double& v : importance) {
      v /= static_cast<double>(contributing_trees);
    }
  }
  return importance;
}

}  // namespace dbtune
