#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>

#include "optimizer/ddpg.h"
#include "optimizer/genetic.h"
#include "optimizer/gp_bo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/random_search.h"
#include "optimizer/smac.h"
#include "optimizer/tpe.h"
#include "optimizer/turbo.h"
#include "sampling/latin_hypercube.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace dbtune {

const char* OptimizerTypeName(OptimizerType type) {
  switch (type) {
    case OptimizerType::kVanillaBo:
      return "Vanilla BO";
    case OptimizerType::kMixedKernelBo:
      return "Mixed-Kernel BO";
    case OptimizerType::kSmac:
      return "SMAC";
    case OptimizerType::kTpe:
      return "TPE";
    case OptimizerType::kTurbo:
      return "TuRBO";
    case OptimizerType::kDdpg:
      return "DDPG";
    case OptimizerType::kGa:
      return "GA";
    case OptimizerType::kRandomSearch:
      return "Random";
  }
  return "?";
}

Optimizer::Optimizer(const ConfigurationSpace& space, OptimizerOptions options,
                     const char* suggest_key)
    : space_(space),
      options_(options),
      rng_(options.seed),
      suggest_key_(suggest_key) {}

Configuration Optimizer::Suggest() {
  suggest_info_ = {};
  if (suggest_key_ == nullptr) return FiniteOrUniform(DoSuggest());
  if (suggest_hist_ == nullptr) {
    suggest_hist_ = &obs::MetricsRegistry::Get().histogram(
        std::string("optimizer.suggest.") + suggest_key_);
  }
  obs::ScopedLatency latency(suggest_hist_);
  const obs::TraceSpan span(std::string(suggest_key_) + ".suggest");
  return FiniteOrUniform(DoSuggest());
}

Configuration Optimizer::FiniteOrUniform(Configuration config) {
  for (double value : config.values()) {
    if (std::isfinite(value)) continue;
    if (obs::MetricsEnabled()) {
      static obs::Counter& nonfinite =
          obs::MetricsRegistry::Get().counter("optimizer.suggest.nonfinite");
      nonfinite.Increment();
    }
    // Like GP-BO's degenerate-fit path: a random point, and no model
    // diagnostics, since they describe the discarded suggestion.
    suggest_info_ = {};
    return space_.SampleUniform(rng_);
  }
  return config;
}

void Optimizer::ObserveWithMetrics(const Configuration& config, double score,
                                   const std::vector<double>& metrics) {
  (void)metrics;
  DBTUNE_CHECK(config.size() == space_.dimension());
  DBTUNE_TRACE_SPAN("optimizer.observe");
  if (obs::MetricsEnabled()) {
    static obs::Counter& observations =
        obs::MetricsRegistry::Get().counter("optimizer.observations");
    observations.Increment();
  }
  configs_.push_back(config);
  unit_history_.push_back(space_.ToUnit(config));
  scores_.push_back(score);
}

double Optimizer::best_score() const {
  DBTUNE_CHECK(!scores_.empty());
  double best = scores_.front();
  for (double s : scores_) best = std::max(best, s);
  return best;
}

const Configuration& Optimizer::best_config() const {
  DBTUNE_CHECK(!scores_.empty());
  size_t best = 0;
  for (size_t i = 1; i < scores_.size(); ++i) {
    if (scores_[i] > scores_[best]) best = i;
  }
  return configs_[best];
}

Configuration Optimizer::NextInit() {
  if (!init_generated_) {
    init_queue_ = LatinHypercubeSample(space_, options_.initial_design, rng_);
    init_generated_ = true;
  }
  DBTUNE_CHECK(InitPending());
  return init_queue_[init_cursor_++];
}

std::vector<std::vector<double>> Optimizer::SnapCandidates(
    const std::vector<std::vector<double>>& candidates) const {
  std::vector<std::vector<double>> snapped(candidates.size());
  ParallelFor(GlobalPool(), 0, candidates.size(), /*grain=*/16,
              [&](size_t begin, size_t end) {
                for (size_t c = begin; c < end; ++c) {
                  snapped[c] = space_.SnapUnit(candidates[c]);
                }
              });
  return snapped;
}

void Optimizer::RecordPrediction(double mean_z, double var_z) {
  const ScoreMoments moments = ScoreMomentsOf(scores_);
  suggest_info_.has_prediction = true;
  suggest_info_.predicted_mean = moments.mean + moments.sd * mean_z;
  suggest_info_.predicted_variance = moments.sd * moments.sd * var_z;
}

void Optimizer::RecordAcquisition(double best, const AcquisitionSweep& sweep) {
  suggest_info_.has_acquisition = true;
  suggest_info_.acquisition_best = best;
  suggest_info_.acquisition_spread = sweep.spread();
  suggest_info_.acquisition_pool = sweep.count();
}

double AcquisitionSweep::spread() const {
  const double n = static_cast<double>(count_);
  const double mean = sum_ / n;
  return std::sqrt(std::max(0.0, sumsq_ / n - mean * mean));
}

double ExpectedImprovement(double mean, double variance, double best) {
  const double sd = std::sqrt(std::max(variance, 1e-16));
  const double z = (mean - best) / sd;
  // Standard normal pdf and cdf.
  const double pdf = std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
  const double cdf = 0.5 * std::erfc(-z / std::sqrt(2.0));
  const double ei = (mean - best) * cdf + sd * pdf;
  return ei > 0.0 ? ei : 0.0;
}

AcquisitionSweep SweepExpectedImprovement(const std::vector<double>& means,
                                          const std::vector<double>& variances,
                                          double best, size_t* winner) {
  DBTUNE_CHECK_MSG(!means.empty(), "empty acquisition candidate pool");
  DBTUNE_CHECK(means.size() == variances.size());
  AcquisitionSweep sweep(-1.0);
  *winner = 0;
  for (size_t c = 0; c < means.size(); ++c) {
    if (sweep.Add(ExpectedImprovement(means[c], variances[c], best))) {
      *winner = c;
    }
  }
  return sweep;
}

std::vector<std::vector<double>> BuildAcquisitionCandidates(
    const ConfigurationSpace& space, Rng& rng,
    const FeatureMatrix& unit_history, const std::vector<double>& scores,
    size_t total) {
  DBTUNE_CHECK(unit_history.size() == scores.size());
  const size_t d = space.dimension();
  std::vector<std::vector<double>> candidates;
  candidates.reserve(total);

  if (!scores.empty()) {
    // Local perturbations of the top incumbents (a quarter of the pool).
    std::vector<size_t> order = ArgSortDescending(scores);
    const size_t incumbents = std::min<size_t>(3, order.size());
    const size_t local = total / 4;
    for (size_t c = 0; c < local; ++c) {
      std::vector<double> u = unit_history[order[c % incumbents]];
      const size_t changes = 1 + rng.Index(3);
      for (size_t k = 0; k < changes; ++k) {
        const size_t j = rng.Index(d);
        if (space.knob(j).is_categorical()) {
          u[j] = rng.Uniform();
        } else {
          u[j] = std::clamp(u[j] + rng.Gaussian(0.0, 0.2), 0.0, 1.0);
        }
      }
      candidates.push_back(std::move(u));
    }
  }
  while (candidates.size() < total) {
    std::vector<double> u(d);
    for (double& v : u) v = rng.Uniform();
    candidates.push_back(std::move(u));
  }
  return candidates;
}

std::unique_ptr<Optimizer> CreateOptimizer(OptimizerType type,
                                           const ConfigurationSpace& space,
                                           OptimizerOptions options) {
  switch (type) {
    case OptimizerType::kVanillaBo:
      return std::make_unique<VanillaBoOptimizer>(space, options);
    case OptimizerType::kMixedKernelBo:
      return std::make_unique<MixedKernelBoOptimizer>(space, options);
    case OptimizerType::kSmac:
      return std::make_unique<SmacOptimizer>(space, options);
    case OptimizerType::kTpe:
      return std::make_unique<TpeOptimizer>(space, options);
    case OptimizerType::kTurbo:
      return std::make_unique<TurboOptimizer>(space, options);
    case OptimizerType::kDdpg:
      return std::make_unique<DdpgOptimizer>(space, options);
    case OptimizerType::kGa:
      return std::make_unique<GeneticOptimizer>(space, options);
    case OptimizerType::kRandomSearch:
      return std::make_unique<RandomSearchOptimizer>(space, options);
  }
  DBTUNE_CHECK_MSG(false, "unknown optimizer type");
  return nullptr;
}

std::vector<OptimizerType> PaperOptimizers() {
  return {OptimizerType::kVanillaBo, OptimizerType::kMixedKernelBo,
          OptimizerType::kSmac,      OptimizerType::kTpe,
          OptimizerType::kTurbo,     OptimizerType::kDdpg,
          OptimizerType::kGa};
}

}  // namespace dbtune
