#ifndef DBTUNE_SURROGATE_GAUSSIAN_PROCESS_H_
#define DBTUNE_SURROGATE_GAUSSIAN_PROCESS_H_

#include <memory>
#include <vector>

#include "surrogate/gp_fit_policy.h"
#include "surrogate/kernels.h"
#include "surrogate/regressor.h"
#include "util/matrix.h"

namespace dbtune {

/// Gaussian-process regression (Eq. 3 of the paper) with a pluggable
/// kernel and grid-searched hyper-parameters (`GpFitPolicy`). Targets are
/// standardized internally; predictive variance is reported in original
/// units.
///
/// Sequential fits are incremental: see DESIGN.md §8 for the cache
/// state machine (when the bordered append applies, when it falls back
/// to a full refactorization).
class GaussianProcess final : public Regressor {
 public:
  GaussianProcess(std::shared_ptr<const Kernel> kernel,
                  GaussianProcessOptions options = {});

  Status Fit(const FeatureMatrix& x, const std::vector<double>& y) override;
  double Predict(const std::vector<double>& x) const override;
  void PredictMeanVar(const std::vector<double>& x, double* mean,
                      double* variance) const override;
  /// Matrix-level batched prediction: assembles K* and runs the
  /// triangular solves per query chunk with reused scratch, bit-identical
  /// to the scalar path at any pool size.
  void PredictMeanVarBatch(const FeatureMatrix& xs,
                           std::vector<double>* means,
                           std::vector<double>* variances) const override;
  std::string name() const override { return "GP-" + kernel_->name(); }

  /// Log marginal likelihood of the current fit (standardized targets).
  double log_marginal_likelihood() const {
    return policy_.log_marginal_likelihood();
  }
  size_t num_observations() const { return x_.size(); }

  /// Fitted hyper-parameters and factorization internals, exposed so the
  /// incremental-fit tests can assert bitwise equality against a full
  /// refactorization.
  double lengthscale() const { return policy_.lengthscale(); }
  double noise() const { return policy_.noise(); }
  const Matrix& cholesky_factor() const { return chol_; }
  const std::vector<double>& alpha() const { return alpha_; }

 private:
  /// A candidate factorization produced during the hyper-parameter grid
  /// sweep; the winner is installed wholesale instead of re-fitting.
  struct FitState {
    Matrix chol;
    std::vector<double> alpha;
  };

  /// Assembles K (no noise diagonal) at `lengthscale`.
  Matrix AssembleKernelMatrix(double lengthscale) const;
  /// Copies `k_base`, adds the noise diagonal, factorizes, and computes
  /// alpha; returns the LML. Does not touch member state.
  Result<double> FactorizeWith(const Matrix& k_base, double noise,
                               FitState* state) const;
  /// Extends the cached factor with rows [old_n, x_.size()) by bordered
  /// Cholesky append, then recomputes alpha/LML (the targets are
  /// re-standardized every fit). Fails when a pivot is not positive.
  Result<double> FitIncremental(size_t old_n);

  std::shared_ptr<const Kernel> kernel_;
  GpFitPolicy policy_;  // lengthscale, noise, LML, cadence, targets

  FeatureMatrix x_;
  Matrix chol_;                 // lower Cholesky factor of K + noise I
  std::vector<double> alpha_;   // (K + noise I)^-1 y
  // True only when chol_/alpha_ match x_ and the current
  // hyper-parameters (i.e. the last Fit succeeded); cleared on entry to
  // Fit so a failed fit can never seed an incremental append.
  bool factor_cached_ = false;
};

}  // namespace dbtune

#endif  // DBTUNE_SURROGATE_GAUSSIAN_PROCESS_H_
