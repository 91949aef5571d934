#include "importance/incremental.h"

#include <utility>

#include "dbms/environment.h"

namespace dbtune {

IncrementalOptions IncreasingSchedule(size_t iterations_per_phase) {
  IncrementalOptions options;
  options.phase_sizes = {5, 10, 15, 20};
  options.iterations_per_phase = iterations_per_phase;
  return options;
}

IncrementalOptions DecreasingSchedule(size_t iterations_per_phase) {
  IncrementalOptions options;
  options.phase_sizes = {40, 20, 10, 5};
  options.iterations_per_phase = iterations_per_phase;
  return options;
}

Result<SessionResult> RunIncrementalSession(
    DbmsSimulator* simulator, const std::vector<size_t>& ranked_knobs,
    const IncrementalOptions& options) {
  if (options.phase_sizes.empty()) {
    return Status::InvalidArgument("phase_sizes must be non-empty");
  }
  for (size_t size : options.phase_sizes) {
    if (size == 0 || size > ranked_knobs.size()) {
      return Status::InvalidArgument("phase size out of range");
    }
  }

  // Every phase would otherwise bind the store under the same default
  // session id, replaying or truncating the previous phase's records.
  SessionControls controls;
  controls.store_path = "";

  // `final_improvement` and `final_objective` hold the best so far.
  SessionResult result;
  // The previous phase's observations as full-space configurations, as
  // they were evaluated: knobs outside that phase at the effective
  // default, which is also where the next phase measures its default.
  std::vector<std::pair<Configuration, double>> carried;

  for (size_t p = 0; p < options.phase_sizes.size(); ++p) {
    const std::vector<size_t> knobs(
        ranked_knobs.begin(),
        ranked_knobs.begin() + static_cast<long>(options.phase_sizes[p]));
    TuningEnvironment env(simulator, knobs);
    if (p == 0) result.final_objective = env.default_objective();

    OptimizerOptions optimizer_options;
    optimizer_options.seed = options.seed + p;
    std::unique_ptr<Optimizer> optimizer =
        CreateOptimizer(options.optimizer, env.space(), optimizer_options);
    for (const auto& [full, score] : carried) {
      std::vector<double> sub(knobs.size());
      for (size_t i = 0; i < knobs.size(); ++i) sub[i] = full[knobs[i]];
      optimizer->Observe(Configuration(std::move(sub)), score);
    }

    const SessionResult phase = RunTuningSession(
        &env, optimizer.get(), options.iterations_per_phase, controls);
    const size_t offset = result.improvement_trace.size();
    for (size_t i = 0; i < phase.improvement_trace.size(); ++i) {
      // Strict: the carried best wins ties.
      if (phase.improvement_trace[i] > result.final_improvement) {
        result.final_improvement = phase.improvement_trace[i];
        result.final_objective = phase.objective_trace[i];
        result.best_iteration = offset + i + 1;
      }
      result.improvement_trace.push_back(result.final_improvement);
      result.objective_trace.push_back(result.final_objective);
    }
    result.algorithm_overhead_seconds += phase.algorithm_overhead_seconds;
    result.per_iteration_overhead.insert(result.per_iteration_overhead.end(),
                                         phase.per_iteration_overhead.begin(),
                                         phase.per_iteration_overhead.end());
    result.simulated_evaluation_seconds += phase.simulated_evaluation_seconds;
    result.replayed_iterations += phase.replayed_iterations;
    result.has_diagnostics = phase.has_diagnostics;
    result.final_diagnostics = phase.final_diagnostics;

    carried.clear();
    for (const Observation& observation : env.history()) {
      carried.emplace_back(env.ToFullConfiguration(observation.config),
                           observation.score);
    }
  }
  return result;
}

}  // namespace dbtune
