#include "surrogate/surrogate_factory.h"

#include "obs/metrics.h"
#include "util/logging.h"

namespace dbtune {

TieredGpSurrogate::TieredGpSurrogate(std::shared_ptr<const Kernel> kernel,
                                     GaussianProcessOptions options)
    : kernel_(std::move(kernel)), options_(std::move(options)) {
  DBTUNE_CHECK(kernel_ != nullptr);
  DBTUNE_CHECK(options_.num_inducing > 0);
}

Status TieredGpSurrogate::Fit(const FeatureMatrix& x,
                              const std::vector<double>& y) {
  if (x.size() > options_.sparse_crossover) {
    if (active_ != nullptr && active_ == exact_.get() &&
        obs::MetricsEnabled()) {
      // First crossing from the exact to the sparse tier.
      static obs::Counter& escalations =
          obs::MetricsRegistry::Get().counter("surrogate.tier.escalations");
      escalations.Increment();
    }
    if (!sparse_) {
      sparse_ = std::make_unique<SparseGaussianProcess>(kernel_, options_);
    }
    active_ = sparse_.get();
    return sparse_->Fit(x, y);
  }
  if (!exact_) exact_ = std::make_unique<GaussianProcess>(kernel_, options_);
  active_ = exact_.get();
  return exact_->Fit(x, y);
}

double TieredGpSurrogate::Predict(const std::vector<double>& x) const {
  DBTUNE_CHECK_MSG(active_ != nullptr, "Predict before Fit");
  return active_->Predict(x);
}

void TieredGpSurrogate::PredictMeanVar(const std::vector<double>& x,
                                       double* mean, double* variance) const {
  DBTUNE_CHECK_MSG(active_ != nullptr, "Predict before Fit");
  active_->PredictMeanVar(x, mean, variance);
}

void TieredGpSurrogate::PredictMeanVarBatch(
    const FeatureMatrix& xs, std::vector<double>* means,
    std::vector<double>* variances) const {
  DBTUNE_CHECK_MSG(active_ != nullptr, "Predict before Fit");
  active_->PredictMeanVarBatch(xs, means, variances);
}

std::string TieredGpSurrogate::name() const {
  if (active_ != nullptr) return active_->name();
  return "TieredGP-" + kernel_->name();
}

std::unique_ptr<Regressor> CreateGpSurrogate(
    std::shared_ptr<const Kernel> kernel, GaussianProcessOptions options) {
  return std::make_unique<TieredGpSurrogate>(std::move(kernel),
                                             std::move(options));
}

}  // namespace dbtune
