#include "optimizer/tpe.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/stats.h"

namespace dbtune {

namespace {
/// Fraction of observations treated as "good" (the gamma quantile).
constexpr double kGamma = 0.15;
/// Candidates sampled from the good density per suggestion.
constexpr size_t kNumCandidates = 24;
/// Minimum observations in the good set.
constexpr size_t kMinGood = 4;
}  // namespace

TpeOptimizer::TpeOptimizer(const ConfigurationSpace& space,
                           OptimizerOptions options)
    : Optimizer(space, options, "tpe") {}

TpeOptimizer::DimensionDensity TpeOptimizer::FitDimension(
    size_t dim, const std::vector<size_t>& sample_ids) const {
  DimensionDensity density;
  const Knob& knob = space_.knob(dim);
  if (knob.is_categorical()) {
    density.categorical = true;
    const size_t k = knob.num_categories();
    // Laplace-smoothed category frequencies over the native indices.
    density.category_probs.assign(k, 1.0);
    double total = static_cast<double>(k);
    for (size_t id : sample_ids) {
      const size_t cat = static_cast<size_t>(configs_[id][dim]);
      DBTUNE_CHECK(cat < k);
      density.category_probs[cat] += 1.0;
      total += 1.0;
    }
    for (double& p : density.category_probs) p /= total;
    return density;
  }

  density.categorical = false;
  density.centers.reserve(sample_ids.size());
  for (size_t id : sample_ids) {
    density.centers.push_back(unit_history_[id][dim]);
  }
  // Scott-style bandwidth with a floor to avoid spiky estimators.
  const double sd = StdDev(density.centers);
  const double n = static_cast<double>(density.centers.size());
  density.bandwidth =
      std::max(0.08, 1.06 * std::max(sd, 0.05) * std::pow(n, -0.2));
  return density;
}

double TpeOptimizer::SampleFromDimension(const DimensionDensity& density,
                                         size_t dim) {
  const Knob& knob = space_.knob(dim);
  if (density.categorical) {
    const size_t cat = rng_.WeightedIndex(density.category_probs);
    return knob.Encode(static_cast<double>(cat));
  }
  // Hyperopt-style estimator: the uniform prior is one mixture component,
  // so a fraction of samples stays exploratory.
  const size_t n = density.centers.size();
  if (n == 0 || rng_.Index(n + 1) == n) return rng_.Uniform();
  const size_t pick = rng_.Index(n);
  return std::clamp(
      density.centers[pick] + rng_.Gaussian(0.0, density.bandwidth), 0.0, 1.0);
}

double TpeOptimizer::DensityAt(const DimensionDensity& density, double value,
                               size_t num_categories) {
  if (density.categorical) {
    // `value` is the encoded category; recover the index.
    const size_t k = num_categories;
    size_t cat = static_cast<size_t>(
        std::clamp(std::floor(value * static_cast<double>(k)), 0.0,
                   static_cast<double>(k - 1)));
    return density.category_probs[cat];
  }
  if (density.centers.empty()) return 1.0;
  // Mixture of the kernels plus the uniform prior component.
  double acc = 0.0;
  const double inv = 1.0 / density.bandwidth;
  for (double c : density.centers) {
    const double zd = (value - c) * inv;
    acc += std::exp(-0.5 * zd * zd) * inv / std::sqrt(2.0 * M_PI);
  }
  acc = (acc + 1.0) / static_cast<double>(density.centers.size() + 1);
  return std::max(acc, 1e-12);
}

Configuration TpeOptimizer::DoSuggest() {
  if (InitPending()) return NextInit();
  DBTUNE_CHECK(!scores_.empty());

  // Split history into good and bad by the gamma quantile.
  std::vector<size_t> order = ArgSortDescending(scores_);
  size_t num_good = std::max(
      kMinGood,
      static_cast<size_t>(kGamma * static_cast<double>(order.size())));
  num_good = std::min(num_good, order.size());
  std::vector<size_t> good(order.begin(),
                           order.begin() + static_cast<long>(num_good));
  std::vector<size_t> bad(order.begin() + static_cast<long>(num_good),
                          order.end());
  if (bad.empty()) bad = good;

  const size_t d = space_.dimension();
  std::vector<DimensionDensity> l(d), g(d);
  for (size_t j = 0; j < d; ++j) {
    l[j] = FitDimension(j, good);
    g[j] = FitDimension(j, bad);
  }

  // Sample candidates from l and keep the one maximizing l/g — each
  // dimension independently (the defining approximation of TPE).
  AcquisitionSweep sweep(-1e300);
  std::vector<double> best_unit(d);
  for (size_t c = 0; c < kNumCandidates; ++c) {
    std::vector<double> unit(d);
    double log_ratio = 0.0;
    for (size_t j = 0; j < d; ++j) {
      unit[j] = SampleFromDimension(l[j], j);
      const size_t k = space_.knob(j).num_categories();
      log_ratio += std::log(DensityAt(l[j], unit[j], k)) -
                   std::log(DensityAt(g[j], unit[j], k));
    }
    if (sweep.Add(log_ratio)) best_unit = std::move(unit);
  }
  // TPE has no predictive distribution over scores — only the density
  // ratio acquisition, reported on the log scale.
  RecordAcquisition(sweep.best(), sweep);
  return space_.FromUnit(best_unit);
}

}  // namespace dbtune
