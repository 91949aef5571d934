#ifndef DBTUNE_SURROGATE_SPARSE_GAUSSIAN_PROCESS_H_
#define DBTUNE_SURROGATE_SPARSE_GAUSSIAN_PROCESS_H_

#include <memory>
#include <vector>

#include "surrogate/gp_fit_policy.h"
#include "surrogate/kernels.h"
#include "surrogate/regressor.h"
#include "util/matrix.h"

namespace dbtune {

/// FITC sparse Gaussian-process regression (Snelson & Ghahramani 2006;
/// the unifying view of Quiñonero-Candela & Rasmussen 2005): the exact
/// GP's O(n³) fit is replaced by an m-inducing-point approximation with
/// O(n·m²) fit time, O(n·m) memory during fit, and O(m²) per-query
/// predictive cost. Hyper-parameters are grid-searched by the same
/// `GpFitPolicy` as the exact GP (same grids, same cadence; the sparse
/// tier never resets the cadence). Targets are standardized internally;
/// predictive variance is reported in original units, exactly like
/// `GaussianProcess`.
///
/// Inducing points are selected from the training set itself by a greedy
/// farthest-point (k-center) sweep seeded at index 0 with ties resolved
/// to the lowest index — a fully deterministic rule, so fits are
/// reproducible run to run and bit-identical at any `DBTUNE_NUM_THREADS`
/// pool size (all parallel regions write index-owned state; reductions
/// run sequentially in a pool-size-independent order). See DESIGN.md §9.
class SparseGaussianProcess final : public Regressor {
 public:
  /// Reads `num_inducing` and the search fields of `options`.
  SparseGaussianProcess(std::shared_ptr<const Kernel> kernel,
                        GaussianProcessOptions options = {});

  Status Fit(const FeatureMatrix& x, const std::vector<double>& y) override;
  double Predict(const std::vector<double>& x) const override;
  void PredictMeanVar(const std::vector<double>& x, double* mean,
                      double* variance) const override;
  std::string name() const override { return "SparseGP-" + kernel_->name(); }

  /// FITC log marginal likelihood of the current fit (standardized
  /// targets).
  double log_marginal_likelihood() const {
    return policy_.log_marginal_likelihood();
  }
  /// Effective number of inducing points of the current fit (min of
  /// `num_inducing` and the training-set size).
  size_t num_inducing() const { return inducing_indices_.size(); }
  /// Training-set indices chosen as inducing points, ascending.
  const std::vector<size_t>& inducing_indices() const {
    return inducing_indices_;
  }
  double lengthscale() const { return policy_.lengthscale(); }
  double noise() const { return policy_.noise(); }

 private:
  /// Per-lengthscale quantities shared across the noise grid (the sparse
  /// analogue of the exact GP's Gram cache): inducing Gram factor,
  /// cross-covariances, and the FITC diagonal correction.
  struct LengthscaleState {
    Matrix kmm;                 // m×m inducing Gram (no jitter)
    Matrix lm;                  // chol(kmm + jitter I)
    Matrix knm;                 // n×m cross-covariances
    std::vector<double> kdiag;  // k(x_i, x_i)
    std::vector<double> q;      // ||lm^-1 knm_i||², the Nyström diagonal
    double logdet_kmm = 0.0;    // log|kmm + jitter I|
  };
  /// A candidate factorization from the grid sweep; the winner is
  /// installed wholesale.
  struct FitState {
    Matrix lm;                  // chol(Kmm + jitter I), from LengthscaleState
    Matrix la;                  // chol(A), A = Kmm + Knmᵀ Λ⁻¹ Knm
    std::vector<double> alpha;  // A⁻¹ Knmᵀ Λ⁻¹ y
  };

  /// Greedy farthest-point selection of min(m, n) inducing indices.
  std::vector<size_t> SelectInducingIndices(const FeatureMatrix& x,
                                            size_t m) const;
  /// Assembles the per-lengthscale state. Fails when the inducing Gram
  /// is not positive definite.
  Result<LengthscaleState> PrepareLengthscale(const FeatureMatrix& x,
                                              double lengthscale) const;
  /// Builds Λ, A, and alpha for one noise level on top of `ls_state`;
  /// returns the FITC log marginal likelihood. Does not touch members.
  Result<double> FactorizeWith(const LengthscaleState& ls_state, double noise,
                               FitState* state) const;

  std::shared_ptr<const Kernel> kernel_;
  GpFitPolicy policy_;  // lengthscale, noise, LML, cadence, targets

  std::vector<size_t> inducing_indices_;
  FeatureMatrix xm_;            // inducing inputs (rows of the last x)
  Matrix lm_;                   // chol(Kmm + jitter I)
  Matrix la_;                   // chol(A)
  std::vector<double> alpha_;   // predictive weights, standardized units
};

}  // namespace dbtune

#endif  // DBTUNE_SURROGATE_SPARSE_GAUSSIAN_PROCESS_H_
