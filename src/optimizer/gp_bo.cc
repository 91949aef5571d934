#include "optimizer/gp_bo.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace dbtune {

GpBoOptimizer::GpBoOptimizer(const ConfigurationSpace& space,
                             OptimizerOptions options,
                             KernelFactory kernel_factory,
                             GaussianProcessOptions gp_options,
                             SurrogateTierOptions tier_options)
    : Optimizer(space, options, "gp_bo"),
      gp_(CreateGpSurrogate(std::move(kernel_factory), gp_options,
                            tier_options)) {}

Configuration GpBoOptimizer::DoSuggest() {
  if (InitPending()) return NextInit();
  DBTUNE_CHECK(!scores_.empty());

  const std::vector<double> z = StandardizedScores();
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

  // Snap every candidate to the feasible configuration it decodes to
  // (the GP must judge the point that will actually be evaluated), then
  // score the whole pool through the batched predict path — one blocked
  // pass over the factor instead of a posterior query per candidate.
  // The sequential reduction keeps ties resolving to the lowest index
  // regardless of pool size.
  std::vector<std::vector<double>> snapped(candidates.size());
  ParallelFor(GlobalPool(), 0, candidates.size(), /*grain=*/16,
              [&](size_t begin, size_t end) {
                for (size_t c = begin; c < end; ++c) {
                  snapped[c] = space_.SnapUnit(candidates[c]);
                }
              });
  std::vector<double> means, variances;
  gp_->PredictMeanVarBatch(snapped, &means, &variances);
  double best_ei = -1.0;
  size_t best_candidate = 0;
  double ei_sum = 0.0;
  double ei_sumsq = 0.0;
  for (size_t c = 0; c < candidates.size(); ++c) {
    const double ei = ExpectedImprovement(means[c], variances[c], best);
    ei_sum += ei;
    ei_sumsq += ei * ei;
    if (ei > best_ei) {
      best_ei = ei;
      best_candidate = c;
    }
  }
  // The snapped candidate is the configuration that will be evaluated, so
  // its (de-standardized) posterior is the one-step-ahead prediction.
  const ScoreMoments moments = CurrentScoreMoments();
  suggest_info_.has_prediction = true;
  suggest_info_.predicted_mean =
      moments.mean + moments.sd * means[best_candidate];
  suggest_info_.predicted_variance =
      moments.sd * moments.sd * variances[best_candidate];
  suggest_info_.has_acquisition = true;
  suggest_info_.acquisition_best = best_ei;
  const double pool = static_cast<double>(candidates.size());
  const double ei_mean = ei_sum / pool;
  const double ei_var = std::max(0.0, ei_sumsq / pool - ei_mean * ei_mean);
  suggest_info_.acquisition_spread = std::sqrt(ei_var);
  suggest_info_.acquisition_pool = candidates.size();
  return space_.FromUnit(candidates[best_candidate]);
}

VanillaBoOptimizer::VanillaBoOptimizer(const ConfigurationSpace& space,
                                       OptimizerOptions options)
    : GpBoOptimizer(space, options,
                    [] { return std::make_unique<RbfKernel>(); }) {}

}  // namespace dbtune
