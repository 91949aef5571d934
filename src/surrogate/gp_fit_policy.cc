#include "surrogate/gp_fit_policy.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/stats.h"

namespace dbtune {

GpFitPolicy::GpFitPolicy(GaussianProcessOptions options)
    : options_(std::move(options)) {
  DBTUNE_CHECK(!options_.lengthscale_grid.empty());
  DBTUNE_CHECK(!options_.noise_grid.empty());
}

bool GpFitPolicy::Begin(const std::vector<double>& y, bool stale) {
  const ScoreMoments moments = ScoreMomentsOf(y);
  y_mean_ = moments.mean;
  y_scale_ = moments.sd;
  y_standardized_.resize(y.size());
  for (size_t i = 0; i < y.size(); ++i) {
    y_standardized_[i] = (y[i] - y_mean_) / y_scale_;
  }

  if (stale) fits_since_hyperopt_ = 0;
  const bool search = !fitted_ || fits_since_hyperopt_ == 0;
  fits_since_hyperopt_ =
      (fits_since_hyperopt_ + 1) % std::max<size_t>(1, options_.hyperopt_every);
  return !search;
}

void GpFitPolicy::CountSearch() {
  if (obs::MetricsEnabled()) {
    static obs::Counter& hyperopt_runs =
        obs::MetricsRegistry::Get().counter("gp.hyperopt.runs");
    hyperopt_runs.Increment();
  }
}

}  // namespace dbtune
