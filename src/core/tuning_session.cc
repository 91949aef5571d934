#include "core/tuning_session.h"

#include "core/session_core.h"
#include "obs/clock.h"
#include "obs/diagnostics.h"
#include "obs/metrics.h"
#include "obs/metrics_export.h"
#include "obs/session_log.h"
#include "obs/trace.h"
#include "optimizer/projected_optimizer.h"
#include "util/logging.h"

namespace dbtune {

SessionResult RunTuningSession(TuningEnvironment* env, Optimizer* optimizer,
                               size_t iterations, SessionControls controls) {
  DBTUNE_CHECK(env != nullptr && optimizer != nullptr);
  DBTUNE_CHECK(optimizer->space().dimension() == env->space().dimension());

  static obs::Histogram& suggest_hist =
      obs::MetricsRegistry::Get().histogram("session.suggest");
  static obs::Histogram& evaluate_hist =
      obs::MetricsRegistry::Get().histogram("session.evaluate");
  static obs::Histogram& observe_hist =
      obs::MetricsRegistry::Get().histogram("session.observe");
  static obs::Counter& iteration_counter =
      obs::MetricsRegistry::Get().counter("session.iterations");
  static obs::Gauge& best_score_gauge =
      obs::MetricsRegistry::Get().gauge("session.best_score");

  obs::SessionLogger session_log(controls.session_log_path);

  // Diagnostics observe the session; they never feed back into it (no
  // RNG draws, no clock reads inside Record), so enabling them leaves
  // the tuning trajectory bitwise unchanged.
  std::unique_ptr<obs::TuningDiagnostics> diagnostics;
  if (controls.diagnostics) {
    diagnostics =
        std::make_unique<obs::TuningDiagnostics>(controls.session_label);
  }
  obs::MetricsExporter exporter(controls.metrics_export_path,
                                ProcessEnvConfig().metrics_export_interval_s);

  SessionResult result;
  result.improvement_trace.reserve(iterations);
  result.objective_trace.reserve(iterations);
  result.per_iteration_overhead.reserve(iterations);
  const double sim_seconds_start = env->evaluator().simulated_seconds();

  SessionStore bound = OpenSessionStore(controls);
  SessionCore core(optimizer, env->default_score(), bound.store,
                   bound.session_id);
  // Store failures disable durability with a warning instead of failing
  // the session.
  auto detach_on_error = [&core](const Status& status) {
    if (status.ok()) return;
    DBTUNE_LOG(kWarning) << "observation store disabled: "
                         << status.ToString();
    core.DetachStore();
  };
  detach_on_error(core.Begin());

  for (size_t iter = 0; iter < iterations; ++iter) {
    DBTUNE_TRACE_SPAN("session.iteration");

    const double t0 = obs::MonotonicSeconds();
    const Configuration config = [&] {
      obs::ScopedLatency latency(&suggest_hist);
      DBTUNE_TRACE_SPAN("session.suggest");
      Configuration suggested;
      detach_on_error(core.Suggest(&suggested));
      return suggested;
    }();
    const double t1 = obs::MonotonicSeconds();

    // While the store's recovered prefix lasts, the recorded outcome
    // stands in for the stress test: Replay() keeps the environment and
    // simulator noise stream aligned with the original run.
    const Observation* recorded = core.recorded();
    const Observation observation = [&] {
      obs::ScopedLatency latency(&evaluate_hist);
      DBTUNE_TRACE_SPAN("session.evaluate");
      return recorded != nullptr ? env->Replay(*recorded)
                                 : env->Evaluate(config);
    }();
    if (recorded != nullptr) ++result.replayed_iterations;
    const double t2 = obs::MonotonicSeconds();

    {
      obs::ScopedLatency latency(&observe_hist);
      DBTUNE_TRACE_SPAN("session.observe");
      const Status observed = core.Observe(observation);
      if (!observed.ok()) {
        detach_on_error(observed);
        detach_on_error(core.Observe(observation));  // learn without store
      }
    }
    const double t3 = obs::MonotonicSeconds();

    const double overhead = (t1 - t0) + (t3 - t2);
    result.algorithm_overhead_seconds += overhead;
    result.per_iteration_overhead.push_back(overhead);
    result.improvement_trace.push_back(env->ImprovementPercent());
    result.objective_trace.push_back(env->best_objective());

    if (obs::MetricsEnabled()) {
      iteration_counter.Increment();
      best_score_gauge.Set(env->best_objective());
    }
    if (diagnostics != nullptr) {
      const SuggestInfo& info = optimizer->last_suggest_info();
      obs::DiagnosticsPrediction prediction;
      prediction.has_prediction = info.has_prediction;
      prediction.mean = info.predicted_mean;
      prediction.variance = info.predicted_variance;
      prediction.has_acquisition = info.has_acquisition;
      prediction.acquisition_best = info.acquisition_best;
      prediction.acquisition_spread = info.acquisition_spread;
      diagnostics->Record(prediction, observation.score);
    }
    if (session_log.enabled()) {
      obs::SessionIterationRecord record;
      record.iteration = iter + 1;
      record.suggest_seconds = t1 - t0;
      record.evaluate_seconds = t2 - t1;
      record.observe_seconds = t3 - t2;
      record.score = observation.score;
      record.best_score = env->best_objective();
      record.improvement_percent = env->ImprovementPercent();
      if (diagnostics != nullptr) {
        record.has_diagnostics = true;
        record.diagnostics = diagnostics->last();
      }
      session_log.Log(record);
    }
    exporter.MaybeExport();
  }

  result.final_improvement = env->ImprovementPercent();
  result.final_objective = env->best_objective();
  result.best_iteration = env->best_iteration();
  result.simulated_evaluation_seconds =
      env->evaluator().simulated_seconds() - sim_seconds_start;
  if (diagnostics != nullptr) {
    result.has_diagnostics = true;
    result.final_diagnostics = diagnostics->last();
  }
  if (exporter.enabled()) {
    const Status exported = exporter.ExportNow();
    if (!exported.ok()) {
      DBTUNE_LOG(kWarning) << "metrics not exported: "
                           << exported.ToString();
    }
  }

  if (!controls.trace_path.empty()) {
    const Status written = obs::WriteTrace(controls.trace_path);
    if (!written.ok()) {
      DBTUNE_LOG(kWarning) << "trace not written: " << written.ToString();
    }
  }
  return result;
}

SessionResult RunTuningSession(DbmsSimulator* simulator,
                               const std::vector<size_t>& knob_indices,
                               OptimizerType optimizer_type, size_t iterations,
                               uint64_t seed, SessionControls controls) {
  TuningEnvironment env(simulator, knob_indices);
  OptimizerOptions options;
  options.seed = seed;
  std::unique_ptr<Optimizer> optimizer;
  if (controls.projection.has_value()) {
    optimizer = std::make_unique<ProjectedOptimizer>(
        env.space(), options, optimizer_type, *controls.projection);
  } else {
    optimizer = CreateOptimizer(optimizer_type, env.space(), options);
  }
  return RunTuningSession(&env, optimizer.get(), iterations, controls);
}

}  // namespace dbtune
