#include "surrogate/gradient_boosting.h"

#include <algorithm>

#include "util/logging.h"
#include "util/random.h"
#include "util/stats.h"

namespace dbtune {

namespace {
/// Shrinkage applied to each round's tree.
constexpr double kLearningRate = 0.08;
constexpr size_t kMaxDepth = 5;
constexpr size_t kMinSamplesLeaf = 3;
/// Row subsampling fraction per round (stochastic gradient boosting).
constexpr double kSubsample = 0.8;
constexpr uint64_t kSeed = 29;
}  // namespace

GradientBoosting::GradientBoosting(GradientBoostingOptions options)
    : options_(options) {}

Status GradientBoosting::Fit(const FeatureMatrix& x,
                             const std::vector<double>& y) {
  DBTUNE_RETURN_IF_ERROR(ValidateTrainingData(x, y));
  trees_.clear();
  base_prediction_ = Mean(y);
  base_fitted_ = true;

  const size_t n = x.size();
  Rng rng(kSeed);
  std::vector<double> residuals(n);
  std::vector<double> current(n, base_prediction_);

  const size_t subset = std::max<size_t>(
      2, static_cast<size_t>(kSubsample * static_cast<double>(n)));
  for (size_t round = 0; round < options_.num_rounds; ++round) {
    for (size_t i = 0; i < n; ++i) residuals[i] = y[i] - current[i];

    RegressionTreeOptions tree_options;
    tree_options.max_depth = kMaxDepth;
    tree_options.min_samples_leaf = kMinSamplesLeaf;
    tree_options.min_samples_split = 2 * kMinSamplesLeaf;
    tree_options.seed = rng.engine()();

    RegressionTree tree(tree_options);
    if (subset < n) {
      const std::vector<size_t> rows = rng.SampleWithoutReplacement(n, subset);
      FeatureMatrix sx;
      std::vector<double> sy;
      sx.reserve(subset);
      sy.reserve(subset);
      for (size_t r : rows) {
        sx.push_back(x[r]);
        sy.push_back(residuals[r]);
      }
      DBTUNE_RETURN_IF_ERROR(tree.Fit(sx, sy));
    } else {
      DBTUNE_RETURN_IF_ERROR(tree.Fit(x, residuals));
    }

    for (size_t i = 0; i < n; ++i) {
      current[i] += kLearningRate * tree.Predict(x[i]);
    }
    trees_.push_back(std::move(tree));
  }
  return Status::OK();
}

double GradientBoosting::Predict(const std::vector<double>& x) const {
  DBTUNE_CHECK_MSG(base_fitted_, "Predict before Fit");
  double out = base_prediction_;
  for (const RegressionTree& tree : trees_) {
    out += kLearningRate * tree.Predict(x);
  }
  return out;
}

}  // namespace dbtune
