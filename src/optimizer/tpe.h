#ifndef DBTUNE_OPTIMIZER_TPE_H_
#define DBTUNE_OPTIMIZER_TPE_H_

#include "optimizer/optimizer.h"

namespace dbtune {

/// Tree-structured Parzen Estimator (Bergstra et al. 2011): models
/// p(x|good) and p(x|bad) with independent per-dimension Parzen
/// estimators and suggests the candidate maximizing l(x)/g(x).
///
/// The per-dimension independence is TPE's documented weakness on
/// configuration spaces with knob interactions (paper §6.2.1).
class TpeOptimizer final : public Optimizer {
 public:
  TpeOptimizer(const ConfigurationSpace& space, OptimizerOptions options);

  std::string name() const override { return "TPE"; }

 private:
  Configuration DoSuggest() override;

  /// Per-dimension Parzen estimator over either numeric values (Gaussian
  /// KDE) or categories (smoothed frequencies).
  struct DimensionDensity {
    bool categorical = false;
    // Numeric: kernel centers and shared bandwidth.
    std::vector<double> centers;
    double bandwidth = 0.1;
    // Categorical: smoothed probability per category.
    std::vector<double> category_probs;
  };

  DimensionDensity FitDimension(size_t dim,
                                const std::vector<size_t>& sample_ids) const;
  double SampleFromDimension(const DimensionDensity& density, size_t dim);
  static double DensityAt(const DimensionDensity& density, double value,
                          size_t num_categories);
};

}  // namespace dbtune

#endif  // DBTUNE_OPTIMIZER_TPE_H_
