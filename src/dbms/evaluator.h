#ifndef DBTUNE_DBMS_EVALUATOR_H_
#define DBTUNE_DBMS_EVALUATOR_H_

#include <vector>

#include "dbms/workload.h"
#include "knobs/configuration_space.h"

namespace dbtune {

/// Outcome of replaying the workload under one configuration.
struct EvaluationResult {
  /// True when the DBMS crashed or could not start under this
  /// configuration (e.g. buffer pool exceeding RAM).
  bool failed = false;
  /// Raw objective value: transactions/second for OLTP workloads,
  /// 95th-percentile latency in seconds for OLAP. Unset when failed.
  double objective = 0.0;
  /// Internal metrics collected during the stress test (zeros when failed;
  /// empty when the evaluator has none).
  std::vector<double> internal_metrics;
  /// Simulated wall-clock cost of this iteration on the real system (DBMS
  /// restart + 3-minute stress test), used for the speedup accounting of
  /// §8.
  double evaluation_seconds = 0.0;
};

/// What a `TuningEnvironment` evaluates configurations on: the simulated
/// DBMS, or the §8 surrogate benchmark that stands in for it.
class Evaluator {
 public:
  Evaluator() = default;
  virtual ~Evaluator() = default;
  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  /// The full configuration space evaluations take.
  virtual const ConfigurationSpace& space() const = 0;
  /// Whether the raw objective is maximized or minimized.
  virtual ObjectiveKind objective() const = 0;

  /// The deployment default configuration.
  virtual Configuration EffectiveDefault() const = 0;
  /// Measures the default once, before tuning begins.
  virtual EvaluationResult MeasureDefault() {
    return Evaluate(EffectiveDefault());
  }

  /// Evaluates one configuration of `space()`.
  virtual EvaluationResult Evaluate(const Configuration& config) = 0;

  /// Advances past one evaluation whose outcome is already known
  /// (durable-store replay), consuming exactly what `Evaluate` would, so
  /// a resumed session continues on a bitwise-identical trajectory.
  virtual void ReplaySkip(bool failed) = 0;

  /// What the evaluations so far would have cost on the real system, in
  /// seconds.
  virtual double simulated_seconds() const = 0;
};

}  // namespace dbtune

#endif  // DBTUNE_DBMS_EVALUATOR_H_
