#include "importance/shap.h"

#include <algorithm>

#include "surrogate/random_forest.h"
#include "util/random.h"
#include "util/stats.h"

namespace dbtune {

namespace {
/// Configurations to explain (better-than-default preferred).
constexpr size_t kMaxExplained = 24;
/// Monte-Carlo permutations per explained configuration.
constexpr size_t kPermutations = 6;
constexpr size_t kForestTrees = 30;
}  // namespace

ShapImportance::ShapImportance(uint64_t seed) : seed_(seed) {}

Result<std::vector<double>> ShapImportance::Rank(
    const ImportanceInput& input) {
  RandomForestOptions forest_options;
  forest_options.num_trees = kForestTrees;
  forest_options.seed = seed_;
  RandomForest forest(forest_options);
  DBTUNE_RETURN_IF_ERROR(forest.Fit(input.unit_x, input.scores));

  last_r_squared_ = HoldoutRSquared(
      input,
      [&] { return std::make_unique<RandomForest>(forest_options); },
      seed_);

  // Explanation set: prefer configurations that beat the default (their
  // SHAP values say which knob changes push performance up from the
  // default); pad with the best observed otherwise.
  std::vector<size_t> order = ArgSortDescending(input.scores);
  std::vector<size_t> explained;
  for (size_t id : order) {
    if (input.scores[id] > input.default_score ||
        explained.size() < kMaxExplained / 2) {
      explained.push_back(id);
    }
    if (explained.size() >= kMaxExplained) break;
  }

  const size_t d = input.unit_x.front().size();
  Rng rng(seed_ ^ 0x5A4B);
  std::vector<double> positive_sum(d, 0.0);
  std::vector<double> phi(d);

  for (size_t id : explained) {
    const std::vector<double>& x = input.unit_x[id];
    std::fill(phi.begin(), phi.end(), 0.0);

    // Monte-Carlo Shapley: walk random permutations from the default
    // toward x, crediting each knob its marginal prediction delta.
    for (size_t p = 0; p < kPermutations; ++p) {
      std::vector<size_t> perm = rng.Permutation(d);
      std::vector<double> z = input.default_unit;
      double prev = forest.Predict(z);
      for (size_t j : perm) {
        if (std::abs(z[j] - x[j]) < 1e-12) continue;
        z[j] = x[j];
        const double next = forest.Predict(z);
        phi[j] += next - prev;
        prev = next;
      }
    }
    for (size_t j = 0; j < d; ++j) {
      const double value = phi[j] / static_cast<double>(kPermutations);
      if (value > 0.0) positive_sum[j] += value;
    }
  }

  if (!explained.empty()) {
    for (double& v : positive_sum) {
      v /= static_cast<double>(explained.size());
    }
  }
  return positive_sum;
}

}  // namespace dbtune
