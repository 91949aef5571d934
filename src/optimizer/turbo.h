#ifndef DBTUNE_OPTIMIZER_TURBO_H_
#define DBTUNE_OPTIMIZER_TURBO_H_

#include <memory>
#include <vector>

#include "optimizer/optimizer.h"

namespace dbtune {

/// Trust-region Bayesian optimization (Eriksson et al. 2019): several
/// local GP models, each confined to a shrinking/expanding box around its
/// incumbent and built by `CreateGpSurrogate` (a region holding fewer
/// than 4 points falls back to a fit over the whole history); Thompson
/// sampling arbitrates between regions (the multi-armed-bandit
/// strategy). Local modeling avoids the over-exploration global GPs
/// suffer in high dimensions.
class TurboOptimizer final : public Optimizer {
 public:
  TurboOptimizer(const ConfigurationSpace& space, OptimizerOptions options);

  void ObserveWithMetrics(const Configuration& config, double score,
                          const std::vector<double>& metrics) override;
  std::string name() const override { return "TuRBO"; }

 private:
  Configuration DoSuggest() override;

  struct TrustRegion {
    std::vector<double> center;  // unit coordinates
    double length = 0.0;  // side of the box; set by RestartRegion
    double best_score = -1e300;
    size_t successes = 0;
    size_t failures = 0;
  };

  void RestartRegion(TrustRegion* region);
  /// Sample ids whose unit points fall inside the region's box.
  std::vector<size_t> PointsInRegion(const TrustRegion& region) const;

  std::vector<TrustRegion> regions_;
  /// Region that produced the last suggestion (for counter updates).
  int last_region_ = -1;
};

}  // namespace dbtune

#endif  // DBTUNE_OPTIMIZER_TURBO_H_
