#include "core/advisor.h"

#include "core/session_core.h"
#include "dbms/environment.h"
#include "obs/trace.h"
#include "sampling/latin_hypercube.h"
#include "store/observation_store.h"
#include "transfer/rgpe.h"
#include "util/logging.h"

namespace dbtune {

Result<AdvisorReport> TuneDbms(DbmsSimulator* simulator,
                               const AdvisorOptions& options,
                               const ObservationRepository* repository) {
  DBTUNE_CHECK(simulator != nullptr);
  if (options.tuning_knobs == 0 ||
      options.tuning_knobs > simulator->space().dimension()) {
    return Status::InvalidArgument("tuning_knobs out of range");
  }
  DBTUNE_TRACE_SPAN("advisor.tune");

  AdvisorReport report;

  // --- Step 0: open the durable store (opt-in) so its persisted
  // base-task pool joins the transfer repository and the tuning session
  // below resumes any recorded trajectory. Store failures degrade to
  // tuning without durability.
  const SessionStore bound = OpenSessionStore(options.session);
  store::ObservationStore* store = bound.store;
  ObservationRepository merged_repository;
  const ObservationRepository* effective_repository = repository;
  if (store != nullptr && store->num_tasks() > 0) {
    if (repository != nullptr) {
      for (const SourceTask& task : repository->tasks()) {
        merged_repository.AddTask(task);
      }
    }
    const Status exported = store->ExportTasks(&merged_repository);
    if (exported.ok()) {
      effective_repository = &merged_repository;
    } else {
      DBTUNE_LOG(kWarning) << "stored base tasks not loaded: "
                           << exported.ToString();
    }
  }

  // --- Step 1: collect observations over the full space.
  TuningEnvironment full_env(simulator);
  Rng rng(options.seed);
  std::vector<Configuration> configs;
  std::vector<double> scores;
  {
    DBTUNE_TRACE_SPAN("advisor.collect");
    const std::vector<Configuration> samples = LatinHypercubeSample(
        simulator->space(), options.importance_samples, rng);
    for (const Configuration& config : samples) {
      const Observation obs = full_env.Evaluate(config);
      configs.push_back(obs.config);
      scores.push_back(obs.score);
    }
  }
  report.default_objective = full_env.default_objective();

  // --- Step 2: rank knobs and prune the space.
  {
    DBTUNE_TRACE_SPAN("advisor.rank_knobs");
    DBTUNE_ASSIGN_OR_RETURN(
        const ImportanceInput input,
        MakeImportanceInput(simulator->space(), configs, scores,
                            simulator->EffectiveDefault(),
                            full_env.default_score()));
    std::unique_ptr<ImportanceMeasure> measure =
        CreateImportanceMeasure(options.measurement, options.seed);
    DBTUNE_ASSIGN_OR_RETURN(const std::vector<double> importance,
                            measure->Rank(input));
    report.selected_knobs = TopKnobs(importance, options.tuning_knobs);
    for (size_t knob : report.selected_knobs) {
      report.selected_knob_names.push_back(
          simulator->space().knob(knob).name());
    }
  }

  // --- Step 3: optimize over the pruned space, with RGPE when history
  // is available.
  TuningEnvironment env(simulator, report.selected_knobs);
  OptimizerOptions optimizer_options;
  optimizer_options.seed = options.seed ^ 0xAD;
  std::unique_ptr<Optimizer> optimizer;
  if (effective_repository != nullptr && !effective_repository->empty()) {
    optimizer = std::make_unique<RgpeOptimizer>(
        env.space(), optimizer_options, effective_repository,
        options.optimizer == OptimizerType::kMixedKernelBo
            ? TransferBase::kMixedKernelBo
            : TransferBase::kSmac);
  } else {
    optimizer =
        CreateOptimizer(options.optimizer, env.space(), optimizer_options);
  }
  SessionControls session_controls = options.session;
  session_controls.store = store;
  report.session = RunTuningSession(&env, optimizer.get(),
                                    options.tuning_iterations,
                                    session_controls);
  // Seal the finished trajectory into the persisted base-task pool so the
  // next advisor run (any workload) starts from a richer repository.
  if (store != nullptr) {
    const Status finished =
        store->FinishSession(bound.session_id, env.space(), bound.session_id);
    if (!finished.ok()) {
      DBTUNE_LOG(kWarning) << "store task not persisted: "
                           << finished.ToString();
    }
  }

  // --- Assemble the recommendation.
  report.best_objective = env.best_objective();
  report.improvement_percent = env.ImprovementPercent();
  report.best_config = env.ToFullConfiguration(env.best_config());
  return report;
}

}  // namespace dbtune
