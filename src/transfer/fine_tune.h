#ifndef DBTUNE_TRANSFER_FINE_TUNE_H_
#define DBTUNE_TRANSFER_FINE_TUNE_H_

#include <memory>
#include <vector>

#include "dbms/workload.h"
#include "optimizer/ddpg.h"
#include "transfer/repository.h"

namespace dbtune {

/// Options for DDPG pre-training across source workloads.
struct PretrainOptions {
  size_t iterations_per_source = 300;
  uint64_t seed = 11;
};

/// Pre-trains one DDPG model sequentially on the source workloads (the
/// paper's fine-tune protocol: 300 iterations per source on hardware
/// instance B, carrying the weights forward). When `repository` is
/// non-null, each source session's observations are recorded there so
/// workload mapping / RGPE see the same historical data (the paper's
/// data-fairness setting).
///
/// `knob_indices` select the tuned knobs in the full catalog, shared by
/// all workloads.
[[nodiscard]] Result<DdpgOptimizer::Weights> PretrainDdpgOnSources(
    const std::vector<WorkloadId>& sources,
    const std::vector<size_t>& knob_indices, const PretrainOptions& options,
    ObservationRepository* repository);

/// Builds a DDPG optimizer warm-started from pre-trained weights
/// (CDBTune's fine-tuning transfer).
[[nodiscard]] Result<std::unique_ptr<DdpgOptimizer>> MakeFineTunedDdpg(
    const ConfigurationSpace& space, OptimizerOptions options,
    const DdpgOptimizer::Weights& pretrained);

}  // namespace dbtune

#endif  // DBTUNE_TRANSFER_FINE_TUNE_H_
