#include "optimizer/turbo.h"

#include <algorithm>
#include <cmath>

#include "surrogate/surrogate_factory.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace dbtune {

namespace {
constexpr size_t kNumTrustRegions = 2;
/// A region's box side starts here, doubles after `kSuccessTolerance`
/// consecutive improvements (up to `kMaxLength`), halves after
/// `kFailureTolerance` consecutive misses, and restarts below
/// `kMinLength`.
constexpr double kInitialLength = 0.4;
constexpr double kMinLength = 0.01;
constexpr double kMaxLength = 1.0;
constexpr size_t kSuccessTolerance = 3;
constexpr size_t kFailureTolerance = 5;
constexpr size_t kCandidatesPerRegion = 50;
}  // namespace

TurboOptimizer::TurboOptimizer(const ConfigurationSpace& space,
                               OptimizerOptions options)
    : Optimizer(space, options, "turbo") {
  regions_.resize(kNumTrustRegions);
  for (TrustRegion& region : regions_) RestartRegion(&region);
}

void TurboOptimizer::RestartRegion(TrustRegion* region) {
  const size_t d = space_.dimension();
  region->center.resize(d);
  for (double& v : region->center) v = rng_.Uniform();
  region->length = kInitialLength;
  region->best_score = -1e300;
  region->successes = 0;
  region->failures = 0;
}

std::vector<size_t> TurboOptimizer::PointsInRegion(
    const TrustRegion& region) const {
  std::vector<size_t> ids;
  const double half = region.length / 2.0;
  for (size_t i = 0; i < unit_history_.size(); ++i) {
    bool inside = true;
    for (size_t j = 0; j < region.center.size(); ++j) {
      if (std::abs(unit_history_[i][j] - region.center[j]) > half) {
        inside = false;
        break;
      }
    }
    if (inside) ids.push_back(i);
  }
  return ids;
}

Configuration TurboOptimizer::DoSuggest() {
  if (InitPending()) return NextInit();
  DBTUNE_CHECK(!scores_.empty());
  const size_t d = space_.dimension();
  const std::vector<double> z = StandardizeScores(scores_);

  // Anchor each region's center on the best point inside it (or the
  // global best when empty).
  size_t global_best = 0;
  for (size_t i = 1; i < z.size(); ++i) {
    if (z[i] > z[global_best]) global_best = i;
  }

  // Thompson samples are the acquisition values: one sweep over the draws
  // of every region.
  AcquisitionSweep sweep(-1e300);
  std::vector<double> best_unit;
  int best_region = -1;
  double best_mean_z = 0.0;
  double best_var_z = 0.0;

  for (size_t r = 0; r < regions_.size(); ++r) {
    TrustRegion& region = regions_[r];
    std::vector<size_t> inside = PointsInRegion(region);
    if (!inside.empty()) {
      size_t local_best = inside.front();
      for (size_t id : inside) {
        if (z[id] > z[local_best]) local_best = id;
      }
      region.center = unit_history_[local_best];
      inside = PointsInRegion(region);
    } else {
      region.center = unit_history_[global_best];
      inside = PointsInRegion(region);
    }

    // Local GP over the points in the region; fall back to the nearest
    // subset when too few points fall inside.
    FeatureMatrix local_x;
    std::vector<double> local_y;
    if (inside.size() >= 4) {
      for (size_t id : inside) {
        local_x.push_back(unit_history_[id]);
        local_y.push_back(z[id]);
      }
    } else {
      local_x = unit_history_;
      local_y = z;
    }
    GaussianProcessOptions gp_options;
    gp_options.hyperopt_every = 1;
    gp_options.lengthscale_grid = {0.1, 0.3, 0.8};
    const std::unique_ptr<Regressor> gp =
        CreateGpSurrogate(std::make_unique<Matern52Kernel>(), gp_options);
    if (!gp->Fit(local_x, local_y).ok()) continue;

    // Thompson sampling over perturbation candidates within the box. All
    // RNG draws (perturbations and the posterior-sample normals) happen
    // sequentially in candidate order first, so the stream matches the
    // sequential implementation; the GP posterior queries — the actual
    // cost — then run in parallel over the candidate batch.
    const double half = region.length / 2.0;
    const double perturb_prob =
        std::min(1.0, 20.0 / static_cast<double>(d));
    std::vector<std::vector<double>> units(kCandidatesPerRegion);
    std::vector<double> normals(kCandidatesPerRegion);
    for (size_t c = 0; c < kCandidatesPerRegion; ++c) {
      std::vector<double> u = region.center;
      bool changed = false;
      for (size_t j = 0; j < d; ++j) {
        if (rng_.Bernoulli(perturb_prob)) {
          u[j] = std::clamp(region.center[j] + rng_.Uniform(-half, half),
                            0.0, 1.0);
          changed = true;
        }
      }
      if (!changed) {
        const size_t j = rng_.Index(d);
        u[j] = std::clamp(region.center[j] + rng_.Uniform(-half, half), 0.0,
                          1.0);
      }
      units[c] = std::move(u);
      normals[c] = rng_.Gaussian();
    }
    std::vector<double> means, variances;
    gp->PredictMeanVarBatch(units, &means, &variances);
    for (size_t c = 0; c < kCandidatesPerRegion; ++c) {
      const double sample = means[c] + std::sqrt(variances[c]) * normals[c];
      if (sweep.Add(sample)) {
        best_unit = units[c];
        best_region = static_cast<int>(r);
        best_mean_z = means[c];
        best_var_z = variances[c];
      }
    }
  }

  if (best_region < 0) {
    last_region_ = -1;
    return space_.SampleUniform(rng_);
  }
  last_region_ = best_region;

  RecordPrediction(best_mean_z, best_var_z);
  RecordAcquisition(sweep.best(), sweep);
  return space_.FromUnit(best_unit);
}

void TurboOptimizer::ObserveWithMetrics(const Configuration& config,
                                        double score,
                                        const std::vector<double>& metrics) {
  Optimizer::ObserveWithMetrics(config, score, metrics);
  if (last_region_ < 0 ||
      last_region_ >= static_cast<int>(regions_.size())) {
    return;
  }
  TrustRegion& region = regions_[static_cast<size_t>(last_region_)];
  if (score > region.best_score + 1e-12) {
    region.best_score = score;
    ++region.successes;
    region.failures = 0;
  } else {
    ++region.failures;
    region.successes = 0;
  }
  if (region.successes >= kSuccessTolerance) {
    region.length = std::min(2.0 * region.length, kMaxLength);
    region.successes = 0;
  } else if (region.failures >= kFailureTolerance) {
    region.length /= 2.0;
    region.failures = 0;
    if (region.length < kMinLength) {
      RestartRegion(&region);
    }
  }
  last_region_ = -1;
}

}  // namespace dbtune
