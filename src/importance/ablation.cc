#include "importance/ablation.h"

#include <algorithm>
#include <cmath>

#include "surrogate/random_forest.h"
#include "util/stats.h"

namespace dbtune {

namespace {
/// How many well-performing target configurations to trace paths to.
constexpr size_t kMaxTargets = 12;
constexpr size_t kForestTrees = 30;
}  // namespace

AblationImportance::AblationImportance(uint64_t seed) : seed_(seed) {}

Result<std::vector<double>> AblationImportance::Rank(
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

  // Targets: configurations observed to beat the default, best first. If
  // none do, fall back to the best observed ones (little signal, which is
  // precisely the measurement's failure mode on robust defaults).
  std::vector<size_t> order = ArgSortDescending(input.scores);
  std::vector<size_t> targets;
  for (size_t id : order) {
    if (input.scores[id] > input.default_score || targets.size() < 3) {
      targets.push_back(id);
    }
    if (targets.size() >= kMaxTargets) break;
  }

  const size_t d = input.unit_x.front().size();
  std::vector<double> importance(d, 0.0);

  for (size_t target_id : targets) {
    const std::vector<double>& target = input.unit_x[target_id];
    std::vector<double> current = input.default_unit;
    double current_pred = forest.Predict(current);

    std::vector<size_t> remaining;
    for (size_t j = 0; j < d; ++j) {
      if (std::abs(target[j] - current[j]) > 1e-9) remaining.push_back(j);
    }

    while (!remaining.empty()) {
      double best_pred = -1e300;
      size_t best_pos = 0;
      for (size_t p = 0; p < remaining.size(); ++p) {
        const size_t j = remaining[p];
        const double saved = current[j];
        current[j] = target[j];
        const double pred = forest.Predict(current);
        current[j] = saved;
        if (pred > best_pred) {
          best_pred = pred;
          best_pos = p;
        }
      }
      const size_t j = remaining[best_pos];
      current[j] = target[j];
      importance[j] += std::max(0.0, best_pred - current_pred);
      current_pred = best_pred;
      remaining.erase(remaining.begin() + static_cast<long>(best_pos));
    }
  }

  if (!targets.empty()) {
    for (double& v : importance) v /= static_cast<double>(targets.size());
  }
  return importance;
}

}  // namespace dbtune
