#include "importance/gini.h"

#include "surrogate/random_forest.h"
#include "util/stats.h"

namespace dbtune {

namespace {
constexpr size_t kForestTrees = 30;
}  // namespace

GiniImportance::GiniImportance(uint64_t seed) : seed_(seed) {}

Result<std::vector<double>> GiniImportance::Rank(
    const ImportanceInput& input) {
  RandomForestOptions options;
  options.seed = seed_;
  options.num_trees = kForestTrees;
  RandomForest forest(options);
  DBTUNE_RETURN_IF_ERROR(forest.Fit(input.unit_x, input.scores));

  last_r_squared_ = HoldoutRSquared(
      input,
      [&] { return std::make_unique<RandomForest>(options); },
      seed_);

  return forest.SplitCountImportance();
}

}  // namespace dbtune
