#ifndef DBTUNE_DBMS_ENVIRONMENT_H_
#define DBTUNE_DBMS_ENVIRONMENT_H_

#include <vector>

#include "dbms/evaluator.h"
#include "dbms/simulator.h"  // callers build environments over it
#include "knobs/configuration_space.h"

namespace dbtune {

/// One tuning observation, in maximize direction.
struct Observation {
  /// The configuration as suggested (in the tuned subspace).
  Configuration config;
  /// Maximize-direction score: throughput for OLTP, negated latency for
  /// OLAP. For failed configurations this is the worst score seen so far
  /// (the paper's protocol to avoid scaling problems).
  double score = 0.0;
  /// Raw objective value (tps or seconds); 0 when failed.
  double objective = 0.0;
  bool failed = false;
  /// DBMS internal metrics collected during the stress test.
  std::vector<double> internal_metrics;
};

/// Optimizer-facing view of one tuning task: an evaluator (the simulated
/// DBMS or the §8 surrogate benchmark) plus the paper's evaluation
/// protocol. Handles knob-subset tuning (unselected knobs stay
/// at the deployment default), failure substitution, and bookkeeping of
/// the best configuration found.
///
/// The environment measures the default configuration once at
/// construction, as a real tuning session would before its first
/// iteration; the default is the first incumbent.
class TuningEnvironment {
 public:
  /// Tunes every knob of the evaluator's space.
  explicit TuningEnvironment(Evaluator* evaluator);

  /// Tunes only `knob_indices` (into the evaluator's space); all other
  /// knobs are pinned at the effective default.
  TuningEnvironment(Evaluator* evaluator, std::vector<size_t> knob_indices);

  TuningEnvironment(const TuningEnvironment&) = delete;
  TuningEnvironment& operator=(const TuningEnvironment&) = delete;

  /// The subspace the optimizer works in.
  const ConfigurationSpace& space() const { return subspace_; }

  const Evaluator& evaluator() const { return *evaluator_; }

  /// Runs one tuning iteration: applies the (subspace) configuration,
  /// replays the workload, and returns the observation. Appends to
  /// `history()`.
  Observation Evaluate(const Configuration& sub_config);

  /// Re-applies an observation recovered from the durable store without
  /// re-running the stress test: performs the same best/worst bookkeeping
  /// as `Evaluate` (recomputing the failure-substituted score from the
  /// running worst) and advances the evaluator via `ReplaySkip`, so a
  /// resumed session continues bitwise-identically. `recorded.config`
  /// must already be clipped into this environment's subspace.
  Observation Replay(const Observation& recorded);

  /// The effective default in subspace coordinates: the configuration
  /// measured at construction and the first incumbent.
  const Configuration& default_config() const { return default_config_; }
  /// The full-space configuration a subspace configuration is evaluated
  /// as: every knob outside the subspace at the effective default.
  Configuration ToFullConfiguration(const Configuration& sub_config) const;
  /// Maximize-direction score of the default configuration.
  double default_score() const { return default_score_; }
  /// Raw objective of the default configuration.
  double default_objective() const { return default_objective_; }

  /// Best score over all iterations so far (default when none succeeded).
  double best_score() const { return best_score_; }
  /// Raw objective of the best configuration (default's when none).
  double best_objective() const { return best_objective_; }
  /// 1-based iteration at which the best score was found; 0 while no
  /// iteration has beaten the default.
  size_t best_iteration() const { return best_iteration_; }
  /// Best configuration found so far (subspace coordinates).
  const Configuration& best_config() const { return best_config_; }

  /// All observations in iteration order.
  const std::vector<Observation>& history() const { return history_; }
  size_t iterations() const { return history_.size(); }

  /// Performance improvement of the best configuration against the
  /// default, in percent: (best-def)/def for throughput workloads,
  /// (def-best)/def for latency workloads.
  double ImprovementPercent() const;

 private:
  /// Converts a raw objective into maximize direction for this workload.
  double ScoreFromObjective(double objective) const;
  /// The bookkeeping `Evaluate` and `Replay` share: fills in the score
  /// (the running worst for a failed `obs`, whose objective becomes 0),
  /// updates the worst and best, and appends to `history_`.
  Observation Record(Observation obs);

  Evaluator* evaluator_;
  std::vector<size_t> knob_indices_;
  ConfigurationSpace subspace_;
  Configuration base_config_;  // effective default (full space)
  Configuration default_config_;

  double default_objective_ = 0.0;
  double default_score_ = 0.0;
  double worst_score_ = 0.0;
  double best_score_ = 0.0;
  double best_objective_ = 0.0;
  size_t best_iteration_ = 0;
  Configuration best_config_;
  std::vector<Observation> history_;
};

}  // namespace dbtune

#endif  // DBTUNE_DBMS_ENVIRONMENT_H_
