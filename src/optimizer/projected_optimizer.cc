#include "optimizer/projected_optimizer.h"

#include "util/logging.h"

namespace dbtune {

ProjectedOptimizer::ProjectedOptimizer(const ConfigurationSpace& space,
                                       OptimizerOptions options,
                                       OptimizerType inner_type,
                                       ProjectionOptions projection)
    // The base copies the full space into `space_`, which outlives (and
    // is initialized before) the projection view over it.
    : Optimizer(space, options, nullptr),
      projection_(&space_, projection),
      inner_(CreateOptimizer(inner_type, projection_.box(), options)) {
  DBTUNE_CHECK(inner_ != nullptr);
}

Configuration ProjectedOptimizer::DoSuggest() {
  const Configuration low = inner_->Suggest();
  // The projection is score-preserving, so the inner optimizer's
  // prediction applies unchanged to the decoded configuration.
  suggest_info_ = inner_->last_suggest_info();
  pending_low_ = low;
  has_pending_ = true;
  return projection_.Decode(projection_.box().ToUnit(low));
}

void ProjectedOptimizer::ObserveWithMetrics(
    const Configuration& config, double score,
    const std::vector<double>& metrics) {
  Optimizer::ObserveWithMetrics(config, score, metrics);
  if (has_pending_) {
    inner_->ObserveWithMetrics(pending_low_, score, metrics);
    has_pending_ = false;
  }
}

void ProjectedOptimizer::SetReferenceScore(double score) {
  inner_->SetReferenceScore(score);
}

std::string ProjectedOptimizer::name() const {
  return "Projected(" + inner_->name() + ")";
}

}  // namespace dbtune
