#ifndef DBTUNE_SURROGATE_RANDOM_FOREST_H_
#define DBTUNE_SURROGATE_RANDOM_FOREST_H_

#include <memory>
#include <vector>

#include "surrogate/regression_tree.h"
#include "surrogate/regressor.h"
#include "util/random.h"

namespace dbtune {

/// Hyper-parameters of the random forest.
struct RandomForestOptions {
  size_t num_trees = 40;
  /// Features tried per split; 0 = all, otherwise capped at sqrt(d) when
  /// `sqrt_features` is set.
  size_t max_features = 0;
  bool sqrt_features = true;
  size_t max_depth = 18;
  size_t min_samples_split = 4;
  size_t min_samples_leaf = 2;
  /// Bootstrap resampling of the training set per tree.
  bool bootstrap = true;
  uint64_t seed = 23;
};

/// Random forest regressor (Breiman 2001). Serves as:
///   * the SMAC surrogate (predictive mean/variance across trees),
///   * the importance backbone (Gini split counts, fANOVA decomposition),
///   * the §8 tuning-benchmark surrogate.
class RandomForest final : public Regressor {
 public:
  explicit RandomForest(RandomForestOptions options = {});

  Status Fit(const FeatureMatrix& x, const std::vector<double>& y) override;
  double Predict(const std::vector<double>& x) const override;
  /// Empirical mean and variance of the per-tree predictions (SMAC's
  /// Gaussian surrogate assumption).
  void PredictMeanVar(const std::vector<double>& x, double* mean,
                      double* variance) const override;
  std::string name() const override { return "RF"; }

  /// Per-feature split counts summed over trees (Gini importance).
  std::vector<double> SplitCountImportance() const;

  /// Per-feature variance-reduction importance summed over trees.
  std::vector<double> ImpurityImportance() const;

  const std::vector<RegressionTree>& trees() const { return trees_; }
  bool fitted() const { return !trees_.empty(); }

 private:
  RandomForestOptions options_;
  std::vector<RegressionTree> trees_;
  size_t num_features_ = 0;
  Rng rng_;
};

}  // namespace dbtune

#endif  // DBTUNE_SURROGATE_RANDOM_FOREST_H_
