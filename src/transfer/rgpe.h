#ifndef DBTUNE_TRANSFER_RGPE_H_
#define DBTUNE_TRANSFER_RGPE_H_

#include <memory>
#include <vector>

#include "optimizer/optimizer.h"
#include "transfer/repository.h"
#include "transfer/workload_mapping.h"

namespace dbtune {

/// Moments of the ensemble mixture Σ wᵢ N(μᵢ, σᵢ²): mean = Σ wᵢμᵢ and
/// variance = Σ wᵢ(μᵢ² + σᵢ²) − mean² (law of total variance). Weights
/// must sum to 1. Note this is NOT Σ wᵢ²σᵢ² — that would be the variance
/// of a weighted *average* of independent draws, which both ignores the
/// spread between model means and vanishes as the ensemble grows.
void MixtureMeanVar(const std::vector<double>& weights,
                    const std::vector<double>& means,
                    const std::vector<double>& variances, double* mean,
                    double* variance);

/// Ranking-weighted ensemble transfer (Feurer et al. 2018): one base
/// surrogate per historical task plus a target surrogate, combined with
/// weights proportional to how often each model ranks the target
/// observations best in Monte-Carlo posterior samples. Tasks that would
/// mislead the target get (near-)zero weight, which is what protects RGPE
/// from negative transfer.
class RgpeOptimizer final : public Optimizer {
 public:
  /// `repository` is borrowed and must outlive the optimizer.
  RgpeOptimizer(const ConfigurationSpace& space, OptimizerOptions options,
                const ObservationRepository* repository, TransferBase base);

  std::string name() const override;

  /// Ensemble weights after the last `Suggest` (bases..., target).
  const std::vector<double>& last_weights() const { return last_weights_; }

 private:
  Configuration DoSuggest() override;

  void FitBaseModels();

  const ObservationRepository* repository_;
  TransferBase base_;
  std::vector<std::unique_ptr<Regressor>> base_models_;
  bool bases_fitted_ = false;
  std::vector<double> last_weights_;
};

}  // namespace dbtune

#endif  // DBTUNE_TRANSFER_RGPE_H_
