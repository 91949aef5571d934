#ifndef DBTUNE_SURROGATE_GRADIENT_BOOSTING_H_
#define DBTUNE_SURROGATE_GRADIENT_BOOSTING_H_

#include <vector>

#include "surrogate/regression_tree.h"
#include "surrogate/regressor.h"

namespace dbtune {

/// Hyper-parameters of the gradient-boosted trees model.
struct GradientBoostingOptions {
  /// Boosting rounds, one shallow tree each.
  size_t num_rounds = 120;
};

/// Gradient boosting with squared loss: each round fits a shallow CART
/// tree to the current residuals. One of the candidate surrogates of the
/// paper's Table 9 ("GB").
class GradientBoosting final : public Regressor {
 public:
  explicit GradientBoosting(GradientBoostingOptions options = {});

  Status Fit(const FeatureMatrix& x, const std::vector<double>& y) override;
  double Predict(const std::vector<double>& x) const override;
  std::string name() const override { return "GB"; }

  bool fitted() const { return !trees_.empty() || base_fitted_; }

 private:
  GradientBoostingOptions options_;
  double base_prediction_ = 0.0;
  bool base_fitted_ = false;
  std::vector<RegressionTree> trees_;
};

}  // namespace dbtune

#endif  // DBTUNE_SURROGATE_GRADIENT_BOOSTING_H_
