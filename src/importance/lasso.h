#ifndef DBTUNE_IMPORTANCE_LASSO_H_
#define DBTUNE_IMPORTANCE_LASSO_H_

#include "importance/importance.h"

namespace dbtune {

/// OtterTune's Lasso-based knob ranking: L1-regularized linear regression
/// over second-degree polynomial features (linear + squares + capped cross
/// terms), solved by coordinate descent. A knob's importance is the
/// largest absolute standardized coefficient among terms involving it.
class LassoImportance final : public ImportanceMeasure {
 public:
  explicit LassoImportance(uint64_t seed = 97);

  Result<std::vector<double>> Rank(const ImportanceInput& input) override;
  std::string name() const override { return "Lasso"; }

  /// R^2 of the final lasso fit on the training data (for the paper's
  /// sensitivity analysis, Figure 4 right).
  double last_fit_r_squared() const { return last_r_squared_; }

 private:
  uint64_t seed_;
  double last_r_squared_ = 0.0;
};

}  // namespace dbtune

#endif  // DBTUNE_IMPORTANCE_LASSO_H_
