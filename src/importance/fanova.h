#ifndef DBTUNE_IMPORTANCE_FANOVA_H_
#define DBTUNE_IMPORTANCE_FANOVA_H_

#include "importance/importance.h"

namespace dbtune {

/// Functional ANOVA (Hutter et al. 2014): fits a random forest, then
/// decomposes each tree's variance over the unit cube into per-knob
/// marginal components via the leaf partition boxes. A knob's importance
/// is the average fraction of total variance its unary marginal explains.
class FanovaImportance final : public ImportanceMeasure {
 public:
  explicit FanovaImportance(uint64_t seed = 97);

  Result<std::vector<double>> Rank(const ImportanceInput& input) override;
  std::string name() const override { return "fANOVA"; }

  double last_fit_r_squared() const { return last_r_squared_; }

 private:
  uint64_t seed_;
  double last_r_squared_ = 0.0;
};

}  // namespace dbtune

#endif  // DBTUNE_IMPORTANCE_FANOVA_H_
