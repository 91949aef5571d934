#include "transfer/workload_mapping.h"

#include <algorithm>
#include <cmath>

#include "surrogate/random_forest.h"
#include "surrogate/surrogate_factory.h"
#include "util/logging.h"
#include "util/matrix.h"
#include "util/stats.h"

namespace dbtune {

const char* TransferBaseName(TransferBase base) {
  switch (base) {
    case TransferBase::kSmac:
      return "SMAC";
    case TransferBase::kMixedKernelBo:
      return "Mixed-Kernel BO";
  }
  return "?";
}

std::unique_ptr<Regressor> CreateBaseSurrogate(TransferBase base,
                                               const ConfigurationSpace& space,
                                               uint64_t seed) {
  if (base == TransferBase::kSmac) {
    RandomForestOptions options;
    options.num_trees = 20;
    options.min_samples_leaf = 3;
    options.seed = seed;
    return std::make_unique<RandomForest>(options);
  }
  GaussianProcessOptions gp_options;
  gp_options.hyperopt_every = 5;
  // Through the factory, the one GP construction point (RGPE fits one
  // base surrogate per source task).
  return CreateGpSurrogate(
      std::make_unique<MixedKernel>(space.CategoricalMask()), gp_options);
}

WorkloadMappingOptimizer::WorkloadMappingOptimizer(
    const ConfigurationSpace& space, OptimizerOptions options,
    const ObservationRepository* repository, TransferBase base)
    : Optimizer(space, options, "workload_mapping"),
      repository_(repository),
      base_(base) {
  DBTUNE_CHECK(repository_ != nullptr);
}

std::string WorkloadMappingOptimizer::name() const {
  return std::string("Mapping (") + TransferBaseName(base_) + ")";
}

void WorkloadMappingOptimizer::ObserveWithMetrics(
    const Configuration& config, double score,
    const std::vector<double>& metrics) {
  Optimizer::ObserveWithMetrics(config, score, metrics);
  if (!metrics.empty()) {
    if (metric_sum_.empty()) metric_sum_.assign(metrics.size(), 0.0);
    for (size_t m = 0; m < metric_sum_.size() && m < metrics.size(); ++m) {
      metric_sum_[m] += metrics[m];
    }
    ++metric_count_;
  }
}

void WorkloadMappingOptimizer::UpdateMapping() {
  if (metric_count_ == 0 || repository_->empty()) {
    mapped_task_ = -1;
    return;
  }
  std::vector<double> signature = metric_sum_;
  for (double& v : signature) v /= static_cast<double>(metric_count_);

  double best_distance = 1e300;
  mapped_task_ = -1;
  const auto& tasks = repository_->tasks();
  for (size_t t = 0; t < tasks.size(); ++t) {
    if (tasks[t].metric_signature.size() != signature.size()) continue;
    const double d = SquaredDistance(tasks[t].metric_signature, signature);
    if (d < best_distance) {
      best_distance = d;
      mapped_task_ = static_cast<int>(t);
    }
  }
}

Configuration WorkloadMappingOptimizer::DoSuggest() {
  if (InitPending()) return NextInit();
  DBTUNE_CHECK(!scores_.empty());
  UpdateMapping();

  // Training set: mapped source observations + target observations, each
  // standardized within its own task (OtterTune rescales the reused data
  // to the target's range; per-task z-scores achieve the same intent).
  const std::vector<double> target_z = StandardizeScores(scores_);
  const double target_best =
      *std::max_element(target_z.begin(), target_z.end());
  FeatureMatrix train_x = unit_history_;
  std::vector<double> train_y = target_z;
  if (mapped_task_ >= 0) {
    const SourceTask& task =
        repository_->tasks()[static_cast<size_t>(mapped_task_)];
    const std::vector<double> source_z = StandardizeScores(task.scores);
    train_x.insert(train_x.end(), task.unit_x.begin(), task.unit_x.end());
    train_y.insert(train_y.end(), source_z.begin(), source_z.end());
  }

  std::unique_ptr<Regressor> surrogate =
      CreateBaseSurrogate(base_, space_, options_.seed ^ scores_.size());
  if (!surrogate->Fit(train_x, train_y).ok()) {
    return space_.SampleUniform(rng_);
  }

  const std::vector<std::vector<double>> candidates =
      BuildAcquisitionCandidates(space_, rng_, unit_history_, target_z,
                                 options_.acquisition_candidates);
  std::vector<double> means, variances;
  surrogate->PredictMeanVarBatch(SnapCandidates(candidates), &means,
                                 &variances);
  size_t best_candidate = 0;
  const AcquisitionSweep sweep =
      SweepExpectedImprovement(means, variances, target_best, &best_candidate);
  // The target's z-scores in train_y are the ones RecordPrediction undoes.
  RecordPrediction(means[best_candidate], variances[best_candidate]);
  RecordAcquisition(sweep.best(), sweep);
  return space_.FromUnit(candidates[best_candidate]);
}

}  // namespace dbtune
