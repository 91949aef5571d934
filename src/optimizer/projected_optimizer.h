#ifndef DBTUNE_OPTIMIZER_PROJECTED_OPTIMIZER_H_
#define DBTUNE_OPTIMIZER_PROJECTED_OPTIMIZER_H_

#include <memory>
#include <string>

#include "knobs/projected_space.h"
#include "optimizer/optimizer.h"

namespace dbtune {

/// Runs any optimizer in a HeSBO-style random subspace of the full
/// configuration space (LlamaTune): the inner optimizer searches the
/// projection's low-dimensional unit box, every suggestion is decoded to
/// a full configuration for the DBMS, and observed scores are fed back
/// at the low-dimensional point that produced them. Opt in per session
/// via `SessionControls::projection`.
///
/// The adapter assumes the strict suggest/observe alternation the
/// session loop follows: each observation credits the score to the most
/// recent `Suggest`'s low-dimensional point. Scores observed without a
/// pending suggestion (e.g. externally injected history) update only the
/// full-space bookkeeping.
class ProjectedOptimizer final : public Optimizer {
 public:
  /// Projects `space` and builds an inner optimizer of `inner_type` over
  /// the box via `CreateOptimizer`.
  ProjectedOptimizer(const ConfigurationSpace& space, OptimizerOptions options,
                     OptimizerType inner_type,
                     ProjectionOptions projection = {});

  void ObserveWithMetrics(const Configuration& config, double score,
                          const std::vector<double>& metrics) override;
  void SetReferenceScore(double score) override;
  std::string name() const override;

  const ProjectedConfigurationSpace& projection() const { return projection_; }
  const Optimizer& inner() const { return *inner_; }

 private:
  Configuration DoSuggest() override;

  ProjectedConfigurationSpace projection_;
  std::unique_ptr<Optimizer> inner_;
  Configuration pending_low_;  // inner-box point of the last Suggest
  bool has_pending_ = false;
};

}  // namespace dbtune

#endif  // DBTUNE_OPTIMIZER_PROJECTED_OPTIMIZER_H_
