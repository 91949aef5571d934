#include "surrogate/random_forest.h"

#include <cmath>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace dbtune {

RandomForest::RandomForest(RandomForestOptions options)
    : options_(options), rng_(options.seed) {}

Status RandomForest::Fit(const FeatureMatrix& x, const std::vector<double>& y) {
  static obs::Histogram& fit_hist =
      obs::MetricsRegistry::Get().histogram("forest.fit");
  obs::ScopedLatency fit_latency(&fit_hist);
  DBTUNE_TRACE_SPAN("forest.fit");
  // One sort per feature for the whole forest; every tree derives its
  // sample's orders from it by counting.
  DBTUNE_ASSIGN_OR_RETURN(const PresortedSamples samples,
                          PresortedSamples::Sort(x, y));
  num_features_ = samples.num_features();
  trees_.clear();
  trees_.reserve(options_.num_trees);

  size_t max_features = options_.max_features;
  if (max_features == 0 && options_.sqrt_features) {
    max_features = std::max<size_t>(
        1, static_cast<size_t>(std::round(std::sqrt(
               static_cast<double>(num_features_)))) * 2);
    max_features = std::min(max_features, num_features_);
  }

  const size_t n = x.size();
  const size_t num_trees = options_.num_trees;

  // Draw every tree's seed and bootstrap index set from the forest RNG up
  // front, in tree order. Tree fitting then runs data-parallel with no
  // shared random state, so the forest is bit-identical at any pool size
  // (and to the historical sequential implementation).
  std::vector<RegressionTreeOptions> tree_options(num_trees);
  std::vector<std::vector<size_t>> bootstrap_picks(num_trees);
  for (size_t t = 0; t < num_trees; ++t) {
    tree_options[t].max_depth = options_.max_depth;
    tree_options[t].min_samples_split = options_.min_samples_split;
    tree_options[t].min_samples_leaf = options_.min_samples_leaf;
    tree_options[t].max_features = max_features;
    tree_options[t].seed = rng_.engine()();
    if (options_.bootstrap) {
      bootstrap_picks[t].reserve(n);
      for (size_t i = 0; i < n; ++i) bootstrap_picks[t].push_back(rng_.Index(n));
    }
  }

  std::vector<size_t> all_samples;
  if (!options_.bootstrap) {
    all_samples.resize(n);
    std::iota(all_samples.begin(), all_samples.end(), size_t{0});
  }
  std::vector<RegressionTree> trees(num_trees);
  ParallelFor(GlobalPool(), 0, num_trees, /*grain=*/1,
              [&](size_t begin, size_t end) {
                for (size_t t = begin; t < end; ++t) {
                  RegressionTree tree(tree_options[t]);
                  tree.Grow(samples, options_.bootstrap ? bootstrap_picks[t]
                                                        : all_samples);
                  trees[t] = std::move(tree);
                }
              });
  trees_ = std::move(trees);
  return Status::OK();
}

double RandomForest::Predict(const std::vector<double>& x) const {
  double mean = 0.0, variance = 0.0;
  PredictMeanVar(x, &mean, &variance);
  return mean;
}

void RandomForest::PredictMeanVar(const std::vector<double>& x, double* mean,
                                  double* variance) const {
  DBTUNE_CHECK_MSG(fitted(), "Predict before Fit");
  // Per-thread scratch: the batch path runs this from pool workers.
  thread_local std::vector<double> predictions;
  predictions.resize(trees_.size());
  for (size_t t = 0; t < trees_.size(); ++t) {
    predictions[t] = trees_[t].Predict(x);
  }
  // Reduced in tree order, so the ensemble statistics do not depend on
  // the pool size.
  *mean = Mean(predictions);
  *variance = Variance(predictions);
}

std::vector<double> RandomForest::SplitCountImportance() const {
  DBTUNE_CHECK_MSG(fitted(), "importance before Fit");
  std::vector<double> importance(num_features_, 0.0);
  for (const RegressionTree& tree : trees_) {
    const std::vector<size_t>& counts = tree.split_counts();
    for (size_t f = 0; f < num_features_; ++f) {
      importance[f] += static_cast<double>(counts[f]);
    }
  }
  return importance;
}

std::vector<double> RandomForest::ImpurityImportance() const {
  DBTUNE_CHECK_MSG(fitted(), "importance before Fit");
  std::vector<double> importance(num_features_, 0.0);
  for (const RegressionTree& tree : trees_) {
    const std::vector<double>& imp = tree.impurity_importance();
    for (size_t f = 0; f < num_features_; ++f) importance[f] += imp[f];
  }
  return importance;
}

}  // namespace dbtune
