#include "core/metrics.h"

#include <cmath>

#include "util/logging.h"
#include "util/stats.h"

namespace dbtune {

double PerformanceEnhancement(double base_objective, double transfer_objective,
                              ObjectiveKind kind) {
  return RelativeGain(transfer_objective, base_objective, kind);
}

std::optional<double> TransferSpeedup(
    const std::vector<double>& base_objective_trace,
    const std::vector<double>& transfer_objective_trace, ObjectiveKind kind) {
  DBTUNE_CHECK(!base_objective_trace.empty());
  DBTUNE_CHECK(!transfer_objective_trace.empty());

  const double base_best = DirectedScore(base_objective_trace.back(), kind);
  // Steps the base took to first reach its final best.
  size_t base_steps = base_objective_trace.size();
  for (size_t i = 0; i < base_objective_trace.size(); ++i) {
    if (DirectedScore(base_objective_trace[i], kind) >= base_best - 1e-12) {
      base_steps = i + 1;
      break;
    }
  }
  // Steps the transfer run took to beat the base best.
  for (size_t i = 0; i < transfer_objective_trace.size(); ++i) {
    if (DirectedScore(transfer_objective_trace[i], kind) > base_best) {
      return static_cast<double>(base_steps) / static_cast<double>(i + 1);
    }
  }
  return std::nullopt;
}

std::vector<double> AverageRanks(const std::vector<std::vector<double>>& values,
                                 bool higher_is_better) {
  DBTUNE_CHECK(!values.empty());
  const size_t methods = values.front().size();
  std::vector<double> rank_sum(methods, 0.0);
  for (const std::vector<double>& scenario : values) {
    DBTUNE_CHECK(scenario.size() == methods);
    // Rank 1 = best.
    std::vector<double> keyed = scenario;
    if (higher_is_better) {
      for (double& v : keyed) v = -v;
    }
    const std::vector<double> ranks = Ranks(keyed);
    for (size_t m = 0; m < methods; ++m) rank_sum[m] += ranks[m];
  }
  for (double& v : rank_sum) v /= static_cast<double>(values.size());
  return rank_sum;
}

}  // namespace dbtune
