#ifndef DBTUNE_CORE_TUNING_SESSION_H_
#define DBTUNE_CORE_TUNING_SESSION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dbms/environment.h"
#include "knobs/projected_space.h"
#include "obs/diagnostics.h"
#include "optimizer/optimizer.h"
#include "util/env_config.h"

namespace dbtune {

namespace store {
class ObservationStore;
}  // namespace store

/// Outcome of one tuning session (the unit of all paper experiments).
struct SessionResult {
  /// Best-so-far improvement (%) against the default after each iteration.
  std::vector<double> improvement_trace;
  /// Best-so-far raw objective after each iteration.
  std::vector<double> objective_trace;
  double final_improvement = 0.0;
  double final_objective = 0.0;
  /// 1-based iteration at which the best configuration was found.
  size_t best_iteration = 0;
  /// Total optimizer overhead (wall-clock seconds spent in Suggest +
  /// Observe, excluding evaluation) — Figure 9's quantity.
  double algorithm_overhead_seconds = 0.0;
  /// Per-iteration overhead (seconds), one entry per iteration.
  std::vector<double> per_iteration_overhead;
  /// Real-system seconds the session's evaluations cost or stand in for
  /// (restarts + stress tests): the evaluator's `simulated_seconds()`.
  double simulated_evaluation_seconds = 0.0;
  /// Final iteration's tuner-quality diagnostics (calibration, regret,
  /// model health), set when diagnostics were enabled for the session.
  bool has_diagnostics = false;
  obs::IterationDiagnostics final_diagnostics;
  /// Iterations recovered from the durable store instead of evaluated
  /// live (0 when no store was attached or the session started fresh).
  size_t replayed_iterations = 0;
};

/// Extra controls for `RunTuningSession`. The switches default to
/// `ProcessEnvConfig()`; an explicit value always wins, so `""` or
/// `false` turns a switch off whatever the environment says.
struct SessionControls {
  /// When non-empty, one JSON line per iteration is written here (see
  /// obs::SessionLogger). Defaults to `DBTUNE_SESSION_LOG`.
  std::string session_log_path = ProcessEnvConfig().session_log_path;
  /// When non-empty, the Chrome trace buffer is written here at session
  /// end. Defaults to the path form of `DBTUNE_TRACE`.
  std::string trace_path = ProcessEnvConfig().trace_path;
  /// When set, the convenience overload runs the optimizer inside this
  /// HeSBO-style random projection of the tuning space (LlamaTune; see
  /// ProjectedConfigurationSpace). Empty searches the native space.
  std::optional<ProjectionOptions> projection;
  /// Collect per-iteration tuner-quality diagnostics (calibration,
  /// regret, model health). Defaults to `DBTUNE_SESSION_DIAGNOSTICS`.
  /// Diagnostics never perturb the tuning trajectory.
  bool diagnostics = ProcessEnvConfig().session_diagnostics;
  /// Names the session: labels its per-session registry metrics and
  /// report rows, and is its durable-store id. Empty → "default".
  std::string session_label;
  /// When non-empty, Prometheus text-format snapshots of the metrics
  /// registry are written here (atomic rename) on the exporter's cadence
  /// plus once at session end. Defaults to `DBTUNE_METRICS_EXPORT`.
  std::string metrics_export_path = ProcessEnvConfig().metrics_export_path;
  /// When non-empty, the session opens the durable observation store at
  /// this path, replays any history recorded under `session_label`, and
  /// appends each new observation to the write-ahead log. Defaults to
  /// `DBTUNE_STORE`.
  std::string store_path = ProcessEnvConfig().store_path;
  /// Borrowed already-open store; takes precedence over `store_path`
  /// (never open two handles onto one WAL). The caller keeps ownership
  /// and must outlive the session.
  store::ObservationStore* store = nullptr;
};

/// Drives `iterations` suggest/evaluate/observe rounds of `optimizer`
/// against `env` (the paper's Figure 2 workflow loop) and reports the
/// traces every experiment consumes. The optimizer must have been built
/// over `env->space()`.
SessionResult RunTuningSession(TuningEnvironment* env, Optimizer* optimizer,
                               size_t iterations,
                               SessionControls controls = {});

/// Convenience: builds the environment over `knob_indices`, creates the
/// optimizer, and runs the session.
SessionResult RunTuningSession(DbmsSimulator* simulator,
                               const std::vector<size_t>& knob_indices,
                               OptimizerType optimizer_type, size_t iterations,
                               uint64_t seed, SessionControls controls = {});

}  // namespace dbtune

#endif  // DBTUNE_CORE_TUNING_SESSION_H_
