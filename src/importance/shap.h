#ifndef DBTUNE_IMPORTANCE_SHAP_H_
#define DBTUNE_IMPORTANCE_SHAP_H_

#include "importance/importance.h"

namespace dbtune {

/// SHAP-based tunability ranking (Lundberg & Lee 2017, applied as in the
/// paper): fit a surrogate, compute Shapley values of well-performing
/// configurations against the *default* configuration as base (the
/// paper's modification), and score each knob by the average of its
/// positive SHAP values. Measures how much tuning the knob away from its
/// default can *gain* — knobs whose changes only hurt get zero.
class ShapImportance final : public ImportanceMeasure {
 public:
  explicit ShapImportance(uint64_t seed = 97);

  Result<std::vector<double>> Rank(const ImportanceInput& input) override;
  std::string name() const override { return "SHAP"; }

  double last_fit_r_squared() const { return last_r_squared_; }

 private:
  uint64_t seed_;
  double last_r_squared_ = 0.0;
};

}  // namespace dbtune

#endif  // DBTUNE_IMPORTANCE_SHAP_H_
