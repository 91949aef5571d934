#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>

#include "optimizer/ddpg.h"
#include "optimizer/genetic.h"
#include "optimizer/mixed_kernel_bo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/random_search.h"
#include "optimizer/smac.h"
#include "optimizer/tpe.h"
#include "optimizer/turbo.h"
#include "optimizer/vanilla_bo.h"
#include "sampling/latin_hypercube.h"
#include "util/logging.h"
#include "util/stats.h"

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
  if (suggest_key_ == nullptr) return DoSuggest();
  if (suggest_hist_ == nullptr) {
    suggest_hist_ = &obs::MetricsRegistry::Get().histogram(
        std::string("optimizer.suggest.") + suggest_key_);
  }
  obs::ScopedLatency latency(suggest_hist_);
  const obs::TraceSpan span(std::string(suggest_key_) + ".suggest");
  return DoSuggest();
}

void Optimizer::Observe(const Configuration& config, double score) {
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

void Optimizer::ObserveWithMetrics(const Configuration& config, double score,
                                   const std::vector<double>& metrics) {
  (void)metrics;
  Observe(config, score);
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

std::vector<double> Optimizer::StandardizedScores() const {
  std::vector<double> out = scores_;
  const double mean = Mean(out);
  double sd = StdDev(out);
  if (sd < 1e-12) sd = 1.0;
  for (double& v : out) v = (v - mean) / sd;
  return out;
}

Optimizer::ScoreMoments Optimizer::CurrentScoreMoments() const {
  ScoreMoments moments;
  if (scores_.empty()) return moments;
  moments.mean = Mean(scores_);
  moments.sd = StdDev(scores_);
  if (moments.sd < 1e-12) moments.sd = 1.0;
  return moments;
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
