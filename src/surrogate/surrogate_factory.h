#ifndef DBTUNE_SURROGATE_SURROGATE_FACTORY_H_
#define DBTUNE_SURROGATE_SURROGATE_FACTORY_H_

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "surrogate/gaussian_process.h"
#include "surrogate/regressor.h"
#include "surrogate/sparse_gaussian_process.h"

namespace dbtune {

/// GP surrogate with automatic tier escalation: every `Fit` dispatches to
/// the exact `GaussianProcess` while the history is at most
/// `options.sparse_crossover` rows and to the `SparseGaussianProcess`
/// above it (0 forces the sparse tier, SIZE_MAX the exact one).
/// Predictions route to whichever model the last fit trained. Both tiers
/// share the one immutable kernel and the one options struct, so
/// escalation changes the fit cost, not the modeling policy. Both are
/// deterministic and bit-identical at any pool size, so the composite is
/// too. Models are created lazily — a session that never crosses the
/// threshold never builds the sparse model (and vice versa).
class TieredGpSurrogate final : public Regressor {
 public:
  TieredGpSurrogate(std::shared_ptr<const Kernel> kernel,
                    GaussianProcessOptions options = {});

  Status Fit(const FeatureMatrix& x, const std::vector<double>& y) override;
  double Predict(const std::vector<double>& x) const override;
  void PredictMeanVar(const std::vector<double>& x, double* mean,
                      double* variance) const override;
  void PredictMeanVarBatch(const FeatureMatrix& xs,
                           std::vector<double>* means,
                           std::vector<double>* variances) const override;
  std::string name() const override;

  /// True when the last `Fit` trained the sparse tier.
  bool sparse_active() const { return active_ == sparse_.get() && sparse_; }
  /// The exact tier, if it has been instantiated.
  const GaussianProcess* exact() const { return exact_.get(); }
  /// The sparse tier, if it has been instantiated.
  const SparseGaussianProcess* sparse() const { return sparse_.get(); }

 private:
  std::shared_ptr<const Kernel> kernel_;
  GaussianProcessOptions options_;
  std::unique_ptr<GaussianProcess> exact_;
  std::unique_ptr<SparseGaussianProcess> sparse_;
  Regressor* active_ = nullptr;
};

/// The construction path every optimizer must use for GP surrogates
/// (enforced by the dbtune-lint `gp-construction` rule in src/optimizer/
/// and src/transfer/): returns a tiered surrogate that escalates from the
/// exact to the sparse GP past `options.sparse_crossover`.
std::unique_ptr<Regressor> CreateGpSurrogate(
    std::shared_ptr<const Kernel> kernel, GaussianProcessOptions options = {});

/// Same, with the kernel built by a callable (the form bench_e2e's
/// surrogate replay uses).
template <typename MakeKernel,
          typename = std::enable_if_t<std::is_invocable_v<MakeKernel&>>>
std::unique_ptr<Regressor> CreateGpSurrogate(
    MakeKernel make_kernel, GaussianProcessOptions options = {}) {
  return CreateGpSurrogate(std::shared_ptr<const Kernel>(make_kernel()),
                           std::move(options));
}

}  // namespace dbtune

#endif  // DBTUNE_SURROGATE_SURROGATE_FACTORY_H_
