#ifndef DBTUNE_TRANSFER_WORKLOAD_MAPPING_H_
#define DBTUNE_TRANSFER_WORKLOAD_MAPPING_H_

#include <memory>

#include "optimizer/optimizer.h"
#include "transfer/repository.h"

namespace dbtune {

/// Which base optimizer a BO transfer framework accelerates (the paper
/// pairs each framework with the two best BO optimizers).
enum class TransferBase {
  kSmac,           // random-forest surrogate
  kMixedKernelBo,  // GP with the mixed kernel
};

/// Display name ("SMAC" / "Mixed-Kernel BO").
const char* TransferBaseName(TransferBase base);

/// Creates an unfitted surrogate of the base optimizer's family.
std::unique_ptr<Regressor> CreateBaseSurrogate(TransferBase base,
                                               const ConfigurationSpace& space,
                                               uint64_t seed);

/// OtterTune's workload-mapping transfer: each iteration matches the
/// target workload to the most similar historical task (Euclidean
/// distance between internal-metric signatures) and trains the base
/// surrogate on the union of the mapped task's observations and the
/// target's own. Reusing a not-quite-identical workload's data wholesale
/// is the framework's documented negative-transfer risk.
class WorkloadMappingOptimizer final : public Optimizer {
 public:
  /// `repository` is borrowed and must outlive the optimizer.
  WorkloadMappingOptimizer(const ConfigurationSpace& space,
                           OptimizerOptions options,
                           const ObservationRepository* repository,
                           TransferBase base);

  void ObserveWithMetrics(const Configuration& config, double score,
                          const std::vector<double>& metrics) override;
  std::string name() const override;

  /// Index of the currently mapped source task (-1 before any mapping).
  int mapped_task() const { return mapped_task_; }

 private:
  Configuration DoSuggest() override;

  void UpdateMapping();

  const ObservationRepository* repository_;
  TransferBase base_;
  std::vector<double> metric_sum_;
  size_t metric_count_ = 0;
  int mapped_task_ = -1;
};

}  // namespace dbtune

#endif  // DBTUNE_TRANSFER_WORKLOAD_MAPPING_H_
