#ifndef DBTUNE_SURROGATE_REGRESSOR_H_
#define DBTUNE_SURROGATE_REGRESSOR_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace dbtune {

/// Feature matrix: one row per sample. All surrogates in this library
/// operate on unit-encoded configurations ([0,1]^d, categorical knobs as
/// encoded indices) unless documented otherwise.
using FeatureMatrix = std::vector<std::vector<double>>;

/// Common interface of the regression surrogates (random forest, gradient
/// boosting, GP, ...). Implementations must be refittable: calling `Fit`
/// again replaces the previous model.
class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Trains on (x, y). Fails on empty or ragged input.
  [[nodiscard]] virtual Status Fit(const FeatureMatrix& x,
                                   const std::vector<double>& y) = 0;

  /// Point prediction for one sample. Requires a successful `Fit`.
  virtual double Predict(const std::vector<double>& x) const = 0;

  /// Predictive mean and variance. The default implementation returns
  /// `Predict` with zero variance; probabilistic models override it.
  virtual void PredictMeanVar(const std::vector<double>& x, double* mean,
                              double* variance) const {
    *mean = Predict(x);
    *variance = 0.0;
  }

  /// Predictive mean and variance for a batch of queries; `means` and
  /// `variances` are resized to `xs.size()`. The default scores queries
  /// through `PredictMeanVar` in parallel (each query writes only its own
  /// slot, so results are bit-identical to the scalar loop at any pool
  /// size); models with a cheaper matrix-level path override it.
  /// Acquisition loops must use this entry point rather than calling the
  /// scalar `PredictMeanVar` per candidate (enforced by dbtune-lint in
  /// src/optimizer/).
  virtual void PredictMeanVarBatch(const FeatureMatrix& xs,
                                   std::vector<double>* means,
                                   std::vector<double>* variances) const;

  /// Short model name for reports ("RF", "GB", ...).
  virtual std::string name() const = 0;
};

/// Validates a training set: non-empty, consistent widths, matching y,
/// and finite features and targets. Every regressor's `Fit` calls it.
[[nodiscard]] Status ValidateTrainingData(const FeatureMatrix& x,
                            const std::vector<double>& y);

}  // namespace dbtune

#endif  // DBTUNE_SURROGATE_REGRESSOR_H_
