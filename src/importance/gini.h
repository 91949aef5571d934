#ifndef DBTUNE_IMPORTANCE_GINI_H_
#define DBTUNE_IMPORTANCE_GINI_H_

#include "importance/importance.h"

namespace dbtune {

/// Tuneful's Gini-score ranking: fit a random forest and count how often
/// each knob is used in tree splits — important knobs discriminate more
/// samples and are picked for splits more frequently.
class GiniImportance final : public ImportanceMeasure {
 public:
  explicit GiniImportance(uint64_t seed = 97);

  Result<std::vector<double>> Rank(const ImportanceInput& input) override;
  std::string name() const override { return "Gini"; }

  /// R^2 of the forest fit on the training data (Figure 4 right).
  double last_fit_r_squared() const { return last_r_squared_; }

 private:
  uint64_t seed_;
  double last_r_squared_ = 0.0;
};

}  // namespace dbtune

#endif  // DBTUNE_IMPORTANCE_GINI_H_
