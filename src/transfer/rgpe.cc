#include "transfer/rgpe.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/stats.h"

namespace dbtune {

namespace {
/// Monte-Carlo samples for the ranking-loss weight estimation.
constexpr size_t kWeightSamples = 30;
/// Target observations used in the ranking loss (subsampled for speed).
constexpr size_t kMaxRankPoints = 40;
}  // namespace

void MixtureMeanVar(const std::vector<double>& weights,
                    const std::vector<double>& means,
                    const std::vector<double>& variances, double* mean,
                    double* variance) {
  DBTUNE_CHECK(weights.size() == means.size());
  DBTUNE_CHECK(weights.size() == variances.size());
  double mu = 0.0;
  double second_moment = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    mu += weights[i] * means[i];
    second_moment += weights[i] * (means[i] * means[i] + variances[i]);
  }
  *mean = mu;
  *variance = std::max(0.0, second_moment - mu * mu);
}

RgpeOptimizer::RgpeOptimizer(const ConfigurationSpace& space,
                             OptimizerOptions options,
                             const ObservationRepository* repository,
                             TransferBase base)
    : Optimizer(space, options, "rgpe"), repository_(repository), base_(base) {
  DBTUNE_CHECK(repository_ != nullptr);
}

std::string RgpeOptimizer::name() const {
  return std::string("RGPE (") + TransferBaseName(base_) + ")";
}

void RgpeOptimizer::FitBaseModels() {
  if (bases_fitted_) return;
  const auto& tasks = repository_->tasks();
  base_models_.reserve(tasks.size());
  for (size_t t = 0; t < tasks.size(); ++t) {
    std::unique_ptr<Regressor> model =
        CreateBaseSurrogate(base_, space_, options_.seed ^ (0xB0 + t));
    const Status fit =
        model->Fit(tasks[t].unit_x, StandardizeScores(tasks[t].scores));
    if (fit.ok()) {
      base_models_.push_back(std::move(model));
    } else {
      base_models_.push_back(nullptr);
      DBTUNE_LOG(kWarning) << "RGPE base fit failed for task "
                           << tasks[t].name << ": " << fit.ToString();
    }
  }
  bases_fitted_ = true;
}

Configuration RgpeOptimizer::DoSuggest() {
  if (InitPending()) return NextInit();
  DBTUNE_CHECK(!scores_.empty());
  FitBaseModels();

  const std::vector<double> target_z = StandardizeScores(scores_);
  std::unique_ptr<Regressor> target_model =
      CreateBaseSurrogate(base_, space_, options_.seed ^ scores_.size());
  const bool target_ok = target_model->Fit(unit_history_, target_z).ok();

  // Gather the live models: bases..., target (last).
  std::vector<Regressor*> models;
  std::vector<bool> is_target;
  for (const auto& model : base_models_) {
    if (model != nullptr) {
      models.push_back(model.get());
      is_target.push_back(false);
    }
  }
  if (target_ok) {
    models.push_back(target_model.get());
    is_target.push_back(true);
  }
  if (models.empty()) return space_.SampleUniform(rng_);

  // --- Ranking-loss weights over the target observations.
  std::vector<size_t> points;
  {
    std::vector<size_t> all(unit_history_.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    if (all.size() > kMaxRankPoints) {
      points = rng_.SampleWithoutReplacement(all.size(), kMaxRankPoints);
    } else {
      points = all;
    }
  }

  std::vector<double> weights(models.size(), 0.0);
  if (points.size() >= 3) {
    // Cache each model's predictive mean/sd at the ranking points, one
    // batched pass per model.
    FeatureMatrix rank_x;
    rank_x.reserve(points.size());
    for (size_t p : points) rank_x.push_back(unit_history_[p]);
    std::vector<std::vector<double>> means(models.size()),
        sds(models.size());
    for (size_t m = 0; m < models.size(); ++m) {
      std::vector<double> variances;
      models[m]->PredictMeanVarBatch(rank_x, &means[m], &variances);
      sds[m].resize(points.size());
      for (size_t p = 0; p < points.size(); ++p) {
        sds[m][p] = std::sqrt(std::max(variances[p], 1e-12));
      }
    }
    for (size_t s = 0; s < kWeightSamples; ++s) {
      double best_loss = 1e300;
      std::vector<size_t> winners;
      for (size_t m = 0; m < models.size(); ++m) {
        std::vector<double> draw(points.size());
        for (size_t p = 0; p < points.size(); ++p) {
          draw[p] = means[m][p] + sds[m][p] * rng_.Gaussian();
        }
        size_t loss = 0;
        for (size_t i = 0; i < points.size(); ++i) {
          for (size_t j = i + 1; j < points.size(); ++j) {
            const bool pred = draw[i] < draw[j];
            const bool truth = target_z[points[i]] < target_z[points[j]];
            if (pred != truth) ++loss;
          }
        }
        const double loss_value = static_cast<double>(loss);
        if (loss_value < best_loss - 1e-12) {
          best_loss = loss_value;
          winners.assign(1, m);
        } else if (loss_value < best_loss + 1e-12) {
          winners.push_back(m);
        }
      }
      for (size_t w : winners) {
        weights[w] += 1.0 / static_cast<double>(winners.size());
      }
    }
    double total = 0.0;
    for (double w : weights) total += w;
    if (total > 0.0) {
      for (double& w : weights) w /= total;
    }
  }
  if (std::all_of(weights.begin(), weights.end(),
                  [](double w) { return w == 0.0; })) {
    // Too few target points to rank: trust the target model when it
    // exists, otherwise spread over the bases.
    if (target_ok) {
      weights.back() = 1.0;
    } else {
      for (double& w : weights) {
        w = 1.0 / static_cast<double>(weights.size());
      }
    }
  }
  last_weights_ = weights;

  // --- EI over the weighted ensemble.
  const double best = *std::max_element(target_z.begin(), target_z.end());
  const std::vector<std::vector<double>> candidates =
      BuildAcquisitionCandidates(space_, rng_, unit_history_, target_z,
                                 options_.acquisition_candidates);
  // Only nonzero-weight models contribute to the mixture; skip the rest
  // up front rather than once per candidate.
  std::vector<size_t> active;
  std::vector<double> active_weights;
  for (size_t m = 0; m < models.size(); ++m) {
    if (weights[m] != 0.0) {
      active.push_back(m);
      active_weights.push_back(weights[m]);
    }
  }

  // One batched predict per active model over the snapped pool — the
  // parallelism lives inside PredictMeanVarBatch, where each query writes
  // only its own slot — then the cheap per-candidate mixture, sequential.
  const std::vector<std::vector<double>> snapped = SnapCandidates(candidates);
  std::vector<std::vector<double>> model_means(active.size()),
      model_vars(active.size());
  for (size_t k = 0; k < active.size(); ++k) {
    models[active[k]]->PredictMeanVarBatch(snapped, &model_means[k],
                                           &model_vars[k]);
  }
  std::vector<double> means(candidates.size());
  std::vector<double> variances(candidates.size());
  std::vector<double> mus(active.size());
  std::vector<double> vars(active.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    for (size_t k = 0; k < active.size(); ++k) {
      mus[k] = model_means[k][c];
      vars[k] = model_vars[k][c];
    }
    MixtureMeanVar(active_weights, mus, vars, &means[c], &variances[c]);
  }
  size_t best_candidate = 0;
  const AcquisitionSweep sweep =
      SweepExpectedImprovement(means, variances, best, &best_candidate);
  // The mixture posterior at the winner, in the target's z-space.
  RecordPrediction(means[best_candidate], variances[best_candidate]);
  RecordAcquisition(sweep.best(), sweep);
  return space_.FromUnit(candidates[best_candidate]);
}

}  // namespace dbtune
