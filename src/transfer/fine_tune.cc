#include "transfer/fine_tune.h"

#include "core/tuning_session.h"
#include "dbms/environment.h"
#include "dbms/simulator.h"
#include "util/logging.h"

namespace dbtune {

// The simulator's internal metrics are DDPG's state.
static_assert(DdpgOptimizer::kStateDim == kNumInternalMetrics);

namespace {
/// Every source workload is measured on the same hardware instance.
constexpr HardwareInstance kPretrainHardware = HardwareInstance::kB;
}  // namespace

Result<DdpgOptimizer::Weights> PretrainDdpgOnSources(
    const std::vector<WorkloadId>& sources,
    const std::vector<size_t>& knob_indices, const PretrainOptions& options,
    ObservationRepository* repository) {
  if (sources.empty()) {
    return Status::InvalidArgument("need at least one source workload");
  }

  // Every source would otherwise bind the store under the same default
  // session id, replaying or truncating the previous source's records.
  SessionControls controls;
  controls.store_path = "";

  DdpgOptimizer::Weights weights;
  bool have_weights = false;
  uint64_t seed = options.seed;

  for (WorkloadId source : sources) {
    DbmsSimulator simulator(source, kPretrainHardware, seed);
    TuningEnvironment env(&simulator, knob_indices);
    OptimizerOptions optimizer_options;
    optimizer_options.seed = seed++;
    DdpgOptimizer ddpg(env.space(), optimizer_options);
    if (have_weights) {
      DBTUNE_RETURN_IF_ERROR(ddpg.ImportWeights(weights));
    }
    RunTuningSession(&env, &ddpg, options.iterations_per_source, controls);
    weights = ddpg.ExportWeights();
    have_weights = true;
    if (repository != nullptr) {
      repository->AddTask(ObservationRepository::FromHistory(
          WorkloadName(source), env.space(), env.history()));
    }
  }
  return weights;
}

Result<std::unique_ptr<DdpgOptimizer>> MakeFineTunedDdpg(
    const ConfigurationSpace& space, OptimizerOptions options,
    const DdpgOptimizer::Weights& pretrained) {
  auto ddpg = std::make_unique<DdpgOptimizer>(space, options);
  DBTUNE_RETURN_IF_ERROR(ddpg->ImportWeights(pretrained));
  return ddpg;
}

}  // namespace dbtune
