#ifndef DBTUNE_SURROGATE_RIDGE_H_
#define DBTUNE_SURROGATE_RIDGE_H_

#include <vector>

#include "surrogate/regressor.h"

namespace dbtune {

/// Hyper-parameters of ridge regression.
struct RidgeOptions {
  double alpha = 1.0;
};

/// L2-regularized linear regression solved in closed form via the normal
/// equations (Cholesky). One of the candidate surrogates of the paper's
/// Table 9 ("RR"). Features are standardized internally.
class RidgeRegression final : public Regressor {
 public:
  explicit RidgeRegression(RidgeOptions options = {});

  Status Fit(const FeatureMatrix& x, const std::vector<double>& y) override;
  double Predict(const std::vector<double>& x) const override;
  std::string name() const override { return "RR"; }

 private:
  RidgeOptions options_;
  std::vector<double> feature_mean_;
  std::vector<double> feature_scale_;
  std::vector<double> coef_;
  double intercept_ = 0.0;
  bool fitted_ = false;
};

}  // namespace dbtune

#endif  // DBTUNE_SURROGATE_RIDGE_H_
