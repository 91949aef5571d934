#include "optimizer/gp_bo.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/stats.h"

namespace dbtune {

GpBoOptimizer::GpBoOptimizer(const ConfigurationSpace& space,
                             OptimizerOptions options,
                             std::shared_ptr<const Kernel> kernel,
                             GaussianProcessOptions gp_options)
    : Optimizer(space, options, "gp_bo"),
      gp_(CreateGpSurrogate(std::move(kernel), std::move(gp_options))) {}

Configuration GpBoOptimizer::DoSuggest() {
  if (InitPending()) return NextInit();
  DBTUNE_CHECK(!scores_.empty());

  const std::vector<double> z = StandardizeScores(scores_);
  Status fit = gp_->Fit(unit_history_, z);
  if (!fit.ok()) {
    // Degenerate geometry (e.g. duplicated points): fall back to random.
    return space_.SampleUniform(rng_);
  }
  const double best = *std::max_element(z.begin(), z.end());

  // Candidate pool: global random samples plus local perturbations of the
  // incumbent.
  const size_t d = space_.dimension();
  size_t best_index = 0;
  for (size_t i = 1; i < z.size(); ++i) {
    if (z[i] > z[best_index]) best_index = i;
  }
  const std::vector<double>& incumbent = unit_history_[best_index];

  std::vector<std::vector<double>> candidates;
  candidates.reserve(options_.acquisition_candidates);
  const size_t local = options_.acquisition_candidates / 4;
  for (size_t c = 0; c < local; ++c) {
    std::vector<double> u = incumbent;
    for (size_t j = 0; j < d; ++j) {
      if (rng_.Bernoulli(std::min(1.0, 3.0 / static_cast<double>(d)))) {
        u[j] = std::clamp(u[j] + rng_.Gaussian(0.0, 0.15), 0.0, 1.0);
      }
    }
    candidates.push_back(std::move(u));
  }
  while (candidates.size() < options_.acquisition_candidates) {
    std::vector<double> u(d);
    for (double& v : u) v = rng_.Uniform();
    candidates.push_back(std::move(u));
  }

  // Score the snapped pool through the batched predict path — one blocked
  // pass over the factor instead of a posterior query per candidate.
  std::vector<double> means, variances;
  gp_->PredictMeanVarBatch(SnapCandidates(candidates), &means, &variances);
  size_t best_candidate = 0;
  const AcquisitionSweep sweep =
      SweepExpectedImprovement(means, variances, best, &best_candidate);
  // The snapped candidate is the configuration that will be evaluated, so
  // its posterior is the one-step-ahead prediction.
  RecordPrediction(means[best_candidate], variances[best_candidate]);
  RecordAcquisition(sweep.best(), sweep);
  return space_.FromUnit(candidates[best_candidate]);
}

VanillaBoOptimizer::VanillaBoOptimizer(const ConfigurationSpace& space,
                                       OptimizerOptions options)
    : GpBoOptimizer(space, options, std::make_unique<RbfKernel>()) {}

MixedKernelBoOptimizer::MixedKernelBoOptimizer(const ConfigurationSpace& space,
                                               OptimizerOptions options)
    : GpBoOptimizer(space, options,
                    std::make_unique<MixedKernel>(space.CategoricalMask())) {}

}  // namespace dbtune
