#ifndef DBTUNE_OPTIMIZER_DDPG_H_
#define DBTUNE_OPTIMIZER_DDPG_H_

#include <memory>
#include <vector>

#include "nn/adam.h"
#include "nn/mlp.h"
#include "optimizer/optimizer.h"

namespace dbtune {

/// Deep Deterministic Policy Gradient tuner (CDBTune / QTune style): the
/// actor maps DBMS internal metrics (state) to a configuration (action);
/// the critic scores state-action pairs against the reward derived from
/// performance deltas versus the default and the previous iteration.
///
/// Feed observations through `ObserveWithMetrics`; missing metrics are a
/// zero state (the optimizer still works but degenerates to a contextual
/// bandit).
class DdpgOptimizer final : public Optimizer {
 public:
  /// Length of the state vector: one entry per DBMS internal metric
  /// (the simulator's `kNumInternalMetrics`).
  static constexpr size_t kStateDim = 40;

  DdpgOptimizer(const ConfigurationSpace& space, OptimizerOptions options);

  void ObserveWithMetrics(const Configuration& config, double score,
                          const std::vector<double>& metrics) override;
  std::string name() const override { return "DDPG"; }

  /// Performance of the default configuration; anchors the reward. When
  /// unset, the first observed score is used.
  void SetReferenceScore(double score) override {
    reference_score_ = score;
    has_reference_ = true;
  }

  /// Actor/critic parameters, for pre-training + fine-tuning transfer.
  struct Weights {
    std::vector<double> actor;
    std::vector<double> critic;
  };
  Weights ExportWeights() const;
  /// Loads pre-trained weights (architecture must match; fails otherwise).
  [[nodiscard]] Status ImportWeights(const Weights& weights);

 private:
  Configuration DoSuggest() override;

  struct Transition {
    std::vector<double> state;
    std::vector<double> action;  // unit-encoded configuration
    double reward = 0.0;
    std::vector<double> next_state;
  };

  double ComputeReward(double score);
  void TrainStep();

  Mlp actor_;
  Mlp critic_;
  Mlp actor_target_;
  Mlp critic_target_;
  AdamOptimizer actor_opt_;
  AdamOptimizer critic_opt_;

  std::vector<Transition> replay_;
  size_t replay_cursor_ = 0;

  std::vector<double> state_;        // current state (last metrics)
  std::vector<double> last_action_;  // action awaiting its observation
  bool has_pending_action_ = false;

  double reference_score_ = 0.0;
  bool has_reference_ = false;
  double previous_score_ = 0.0;
  bool has_previous_ = false;
  size_t suggestions_ = 0;
};

}  // namespace dbtune

#endif  // DBTUNE_OPTIMIZER_DDPG_H_
