#ifndef DBTUNE_IMPORTANCE_ABLATION_H_
#define DBTUNE_IMPORTANCE_ABLATION_H_

#include "importance/importance.h"

namespace dbtune {

/// Ablation analysis (Biedenkapp et al. 2017): fit a surrogate, then for
/// each configuration better than the default walk a greedy path from the
/// default to it, flipping at each step the knob whose change the
/// surrogate predicts to help most. A knob's importance is the average
/// predicted improvement credited to its flips.
///
/// Depends on the sample set containing configurations better than the
/// default — its documented weakness when defaults are robust.
class AblationImportance final : public ImportanceMeasure {
 public:
  explicit AblationImportance(uint64_t seed = 97);

  Result<std::vector<double>> Rank(const ImportanceInput& input) override;
  std::string name() const override { return "Ablation"; }

  double last_fit_r_squared() const { return last_r_squared_; }

 private:
  uint64_t seed_;
  double last_r_squared_ = 0.0;
};

}  // namespace dbtune

#endif  // DBTUNE_IMPORTANCE_ABLATION_H_
